"""The two ways mes declines to answer; the message says why."""


class PreconditionError(Exception):
    """The input violates a precondition, which the message names (CLI exit 2)."""


class UndecidableError(Exception):
    """The rank decisions cannot settle the question (CLI exit 3)."""
