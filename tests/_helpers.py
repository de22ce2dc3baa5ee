"""Random states and operator tuples for tests, and support projectors; every
random draw takes an explicit numpy Generator."""

import math
from typing import Sequence

import numpy as np

from mes import core
from mes.core import LocalOperatorTuple, PureState
from mes.spaces import DimsProfile

# Random invertible draws are rejected while sigma_min < this times sigma_max,
# keeping rank decisions far from the cutoff.
INVERTIBLE_CONDITION_FLOOR = 1e-3


def identity_tuple(dims: Sequence[int]) -> LocalOperatorTuple:
    return LocalOperatorTuple(tuple(np.eye(d, dtype=complex) for d in dims))


def _random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_invertible_tuple(
    dims: Sequence[int], rng: np.random.Generator
) -> LocalOperatorTuple:
    """Square complex-Gaussian operators, redrawn while badly conditioned."""
    ops = []
    for d in dims:
        while True:
            op = _random_complex(rng, d, d)
            svals = np.linalg.svd(op, compute_uv=False)
            if svals[-1] > INVERTIBLE_CONDITION_FLOOR * svals[0]:
                break
        ops.append(op)
    return LocalOperatorTuple(tuple(ops))


def conditioned_tuple(
    dims: Sequence[int], kappa: float, rng: np.random.Generator
) -> LocalOperatorTuple:
    """Square operators U diag(s) V, U and V random unitaries and s log-spaced
    from 1 down to 1/kappa, so each has condition number kappa."""
    ops = []
    for d in dims:
        u, v = (np.linalg.qr(_random_complex(rng, d, d))[0] for _ in range(2))
        ops.append((u * np.logspace(0, -np.log10(kappa), d)) @ v)
    return LocalOperatorTuple(tuple(ops))


def random_singular_tuple(
    dims: Sequence[int], rng: np.random.Generator
) -> LocalOperatorTuple:
    """Random tuple with at least one rank-deficient operator."""
    ops = []
    for d in dims:
        r = int(rng.integers(1, d + 1))
        ops.append(_random_complex(rng, d, r) @ _random_complex(rng, r, d))
    # force deficiency somewhere so monotonicity is tested off the invertible case
    j = int(rng.integers(0, len(ops)))
    d = dims[j]
    r = max(1, d - 1)
    ops[j] = _random_complex(rng, d, r) @ _random_complex(rng, r, d)
    return LocalOperatorTuple(tuple(ops))


def straddling_states(
    dims: Sequence[int], party: int, svals: Sequence[float], count: int,
    rng: np.random.Generator,
) -> list:
    """States on dims whose party has singular values svals then t: for each
    of count draws of random unitaries, t takes 61 ulp steps across the
    default cutoff, so the rounding of an SVD decides which side t lands on."""
    d = dims[party]
    rest = math.prod(dims) // d
    others = tuple(dims[:party]) + tuple(dims[party + 1:])
    edge = core.DEFAULT_RANK_EPS
    states = []
    for _ in range(count):
        u, v = (np.linalg.qr(_random_complex(rng, n, n))[0] for n in (d, rest))
        for step in range(-30, 31):
            m = (u * np.array([*svals, edge + step * np.spacing(edge)])) @ v[:d]
            tens = np.moveaxis(m.reshape((d,) + others), 0, party)
            states.append(PureState(DimsProfile(dims), tens.reshape(-1)))
    return states


def random_state(dims: Sequence[int], rng: np.random.Generator) -> PureState:
    prof = DimsProfile(dims)
    amps = rng.standard_normal(prof.total_dim) + 1j * rng.standard_normal(
        prof.total_dim
    )
    return PureState(prof, amps)


def support_projectors(state: PureState) -> LocalOperatorTuple:
    """Per-party orthogonal projectors onto the state's local supports."""
    ops = []
    for i in range(state.n):
        rank = core.schmidt_rank(state, {i})[0]
        perp = core.orthocomplement_basis(core.flattening(state, {i}).T, rank)
        ops.append(np.eye(state.dims[i]) - perp @ perp.conj().T)
    return LocalOperatorTuple(tuple(ops))


def group_parties(state: PureState, groups: Sequence[Sequence[int]]) -> PureState:
    """The state with each group of parties, in order, merged into one party."""
    dims = tuple(math.prod(state.dims[i] for i in g) for g in groups)
    return PureState(DimsProfile(dims), state.tensor().transpose([i for g in groups for i in g]))
