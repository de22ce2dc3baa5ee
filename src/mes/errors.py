"""Exception hierarchy.

PreconditionError subclasses map to CLI exit code 2, UndecidableError to 3.
"""


class MesError(Exception):
    pass


class PreconditionError(MesError):
    pass


class UndecidableError(MesError):
    pass


# core
class LengthMismatch(PreconditionError):
    pass


class ZeroState(PreconditionError):
    pass


class NonFiniteAmplitudes(PreconditionError):
    pass


class EmptyOrFullSubset(PreconditionError):
    pass


class ShapeMismatch(PreconditionError):
    pass


class ZeroResult(PreconditionError):
    pass


class InvalidPartition(PreconditionError):
    pass


# construct
class BadDimension(PreconditionError):
    pass


class ConditionViolated(PreconditionError):
    pass


class BadProfile(PreconditionError):
    pass


class BadClassIndex(PreconditionError):
    pass


# slocc
class TrivialParty(PreconditionError):
    pass


class SingleParty(PreconditionError):
    pass


class PivotRankDeficient(PreconditionError):
    pass


class NonPositiveK(PreconditionError):
    pass


class NotHyperplaneProfile(PreconditionError):
    pass


class NotMaximal(PreconditionError):
    pass


class ProfileMismatch(PreconditionError):
    pass


# rank
class NotTripartite(PreconditionError):
    pass


class Unsorted(PreconditionError):
    pass
