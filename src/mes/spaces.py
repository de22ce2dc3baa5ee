"""Profiles and the answers that depend on dimensions alone.

The MES existence condition, the finite-class catalog and the Thm 2 bounds on
the maximum tensor rank of a space are integer arithmetic on a profile, so
this module imports nothing but the standard library and errors: a question
about a space never pays for numpy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import PreconditionError


@dataclass(frozen=True)
class DimsProfile:
    """Ordered subsystem dimensions with derived quantities."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(self.dims)
        if not all(type(d) is int for d in dims):  # plain ints skip the ABC check
            if not all(isinstance(d, numbers.Integral) and not isinstance(d, bool) for d in dims):
                raise PreconditionError(f"dimensions must be integers, got {dims}")
            dims = tuple(int(d) for d in dims)
        if len(dims) < 1:
            raise PreconditionError("profile needs at least one party")
        if any(d < 1 for d in dims):
            raise PreconditionError(f"dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def sorted_desc(self) -> tuple:
        return tuple(sorted(self.dims, reverse=True))

    @property
    def tail_product(self) -> int:
        """Product of all but the largest dimension (sorted profile)."""
        return math.prod(self.sorted_desc[1:])

    @property
    def deficiency(self) -> int:
        """tail_product minus the largest dimension; k when tripartite."""
        return self.tail_product - self.sorted_desc[0]

    @property
    def has_mes(self) -> bool:
        """Whether a maximum entangled state exists: deficiency <= 0."""
        return self.deficiency <= 0

    @property
    def k(self) -> Optional[int]:
        """Deficiency d2*d3 - d1 of a tripartite profile; k = 1 is the hyperplane."""
        return self.deficiency if self.n == 3 else None

    # The gates: each raises PreconditionError, with the only copy of its
    # message, unless the profile meets its condition, and returns the profile.
    # Every question checks party count, then dimensions, then order, then
    # deficiency, so a profile that breaks two rules gets one message.

    def require_two_parties(self) -> DimsProfile:
        """At least two parties: a cut needs a party on each side."""
        if self.n < 2:
            raise PreconditionError("at least two parties required")
        return self

    def require_three_parties(self) -> DimsProfile:
        if self.n != 3:
            raise PreconditionError(f"three parties required, got {self.n}")
        return self

    def require_nontrivial_dims(self) -> DimsProfile:
        """Two or more parties, each of dimension at least 2."""
        self.require_two_parties()
        if any(d < 2 for d in self.dims):
            raise PreconditionError(f"dimensions must all be >= 2, got {self.dims}")
        return self

    def require_sorted(self) -> DimsProfile:
        if self.dims != self.sorted_desc:
            raise PreconditionError(f"dims {self.dims} must be sorted non-increasing")
        return self

    def require_mes(self) -> DimsProfile:
        if not self.has_mes:
            raise PreconditionError(f"no maximum entangled state for dims {self.dims}")
        return self

    def require_full_ranks(self) -> DimsProfile:
        """No dimension above the product of the others (deficiency >= 0), so
        some state on the profile has full local ranks."""
        if self.deficiency < 0:
            raise PreconditionError(
                f"no state on dims {self.dims} has full local ranks: "
                f"the largest dimension exceeds the product of the others")
        return self

    def require_hyperplane(self) -> DimsProfile:
        self.require_three_parties().require_nontrivial_dims().require_sorted()
        if self.k != 1:
            raise PreconditionError(f"requires d1 = d2*d3 - 1, got {self.dims}")
        return self

    def require_same(self, other: DimsProfile) -> DimsProfile:
        if self.dims != other.dims:
            raise PreconditionError(f"dims differ: {self.dims} vs {other.dims}")
        return self


def mes_exists(dims: Sequence[int]) -> bool:
    """Whether the space admits a (stochastic) maximum entangled state.

    True iff the largest dimension is at least the product of the others;
    the input order is irrelevant.
    """
    return DimsProfile(dims).require_nontrivial_dims().has_mes


@dataclass(frozen=True)
class CatalogEntry:
    """Finiteness verdict for the maximal equivalence classes of a profile."""

    dims: tuple
    finite: bool
    max_class_count: Optional[int] = None
    total_class_count: Optional[int] = None
    source: Optional[str] = None


def _corollary_family_match(sorted_dims: tuple) -> Optional[str]:
    """Match against the finite-class families (2b - 2, b, 2) and (2b - 3, b, 2)."""
    if len(sorted_dims) == 3:
        a, b, c = sorted_dims
        if c == 2 and a in (2 * b - 2, 2 * b - 3):
            return f"finite-family ({a},{b},2)"
    return None


def finite_class_catalog(dims: Sequence[int]) -> CatalogEntry:
    """Pattern-match a profile against the known finite-class results.

    Pure lookup: no classification is attempted. Profiles matching no clause
    are reported as finite=False meaning unknown, not infinite.
    """
    prof = DimsProfile(dims).require_nontrivial_dims()
    sorted_dims = prof.sorted_desc
    if sorted_dims == (4, 3, 2):
        return CatalogEntry(sorted_dims, True, max_class_count=5,
                            source="enumerated 4x3x2 maximal classes")
    if sorted_dims == (3, 2, 2):
        return CatalogEntry(sorted_dims, True, max_class_count=2,
                            total_class_count=8, source="3x2x2 enumeration")
    if prof.has_mes:
        # a maximum entangled state exists and dominates every state
        return CatalogEntry(sorted_dims, True, max_class_count=1,
                            source="maximum entangled state")
    # the clauses below presuppose 1 <= deficiency < tail_product/2
    if 2 * prof.deficiency < prof.tail_product:
        if prof.k == 1:
            return CatalogEntry(
                sorted_dims, True,
                max_class_count=min(sorted_dims[1], sorted_dims[2]),
                source="hyperplane class count",
            )
        if prof.deficiency == 1:
            return CatalogEntry(sorted_dims, True,
                                source="hyperplane correspondence")
        family = _corollary_family_match(sorted_dims)
        if family is not None:
            return CatalogEntry(sorted_dims, True, source=family)
    return CatalogEntry(sorted_dims, False, source=None)


@dataclass(frozen=True)
class RankBound:
    """Interval [lower, upper] on tensor rank with provenance tags."""

    lower: int
    upper: int
    exact: bool
    provenance: tuple

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} > upper {self.upper}")
        if self.exact and self.lower != self.upper:
            raise ValueError("exact bound must have lower == upper")


def space_rank_bounds(dims: Sequence[int]) -> RankBound:
    """Maximum tensor rank of a sorted tripartite space, as a RankBound.

    With k = d2*d3 - d1: exactly d2*d3 when k <= 0; exactly d2*d3 - ceil(k/2)
    when 0 <= k <= 4 and k <= max(d2, d3); otherwise lower bounded by
    d1 + floor(sqrt(2k+2)) - 2 and upper bounded by d2*d3.
    """
    prof = DimsProfile(dims).require_three_parties().require_sorted()
    d1, d2, d3 = prof.dims
    k, tail = prof.k, prof.tail_product
    if prof.has_mes:
        return RankBound(tail, tail, True, ("flattening",))
    lower = max(d1, d1 + math.isqrt(2 * k + 2) - 2)
    provenance = ["flattening", "Thm2(i)"]
    if k <= 4 and k <= max(d2, d3):
        value = tail - math.ceil(k / 2)
        provenance.append("Thm2(ii)")
        return RankBound(max(lower, value), value, True, tuple(provenance))
    return RankBound(lower, tail, False, tuple(provenance))
