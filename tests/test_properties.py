"""Randomized and property-based invariants of the library operations."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    conditioned_tuple,
    group_parties,
    random_invertible_tuple,
    random_singular_tuple,
    random_state,
    straddling_states,
    support_projectors,
)
from mes import construct, core, io, rank, slocc, spaces

SMALL_TRIPARTITE = [
    dims
    for dims in itertools.product(range(2, 5), repeat=3)
    if dims[0] >= dims[1] >= dims[2]
]


def all_bipartition_ranks(state):
    return {
        subset: core.schmidt_rank(state, subset)[0]
        for subset in core.canonical_bipartitions(state.n)
    }


def test_bipartition_rank_equals_complement_rank():
    rng = np.random.default_rng(11)
    for dims in [(2, 2, 2), (3, 2, 2), (2, 2, 2, 2)]:
        s = random_state(dims, rng)
        for subset in core.canonical_bipartitions(s.n):
            comp = tuple(i for i in range(s.n) if i not in subset)
            if comp:
                assert (
                    core.schmidt_rank(s, subset)[0]
                    == core.schmidt_rank(s, comp)[0]
                )


def test_ranks_invariant_under_invertible_tuples():
    # >= 100 random invertible tuples across small profiles
    rng = np.random.default_rng(5)
    count = 0
    for dims in [(2, 2, 2), (3, 2, 2), (4, 3, 2), (2, 2, 2, 2)]:
        s = random_state(dims, rng)
        before = all_bipartition_ranks(s)
        for _ in range(30):
            tup = random_invertible_tuple(dims, rng)
            assert all_bipartition_ranks(core.apply_local(s, tup)) == before
            count += 1
    assert count >= 100


def test_ranks_non_increasing_under_singular_tuples():
    rng = np.random.default_rng(6)
    for _ in range(120):
        dims = tuple(sorted(rng.integers(2, 5, size=3), reverse=True))
        s = random_state(dims, rng)
        before = all_bipartition_ranks(s)
        after = all_bipartition_ranks(core.apply_local(s, random_singular_tuple(dims, rng)))
        assert all(after[k] <= before[k] for k in before)


def test_group_parties_preserves_group_aligned_cuts():
    rng = np.random.default_rng(12)
    s = random_state((2, 3, 2, 2), rng)
    grouped = group_parties(s, ((0, 1), (2, 3)))
    assert (
        core.schmidt_rank(grouped, {0})[0]
        == core.schmidt_rank(s, {0, 1})[0]
    )


@settings(max_examples=30, deadline=None)
@given(
    scale=st.complex_numbers(
        min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
    )
)
def test_schmidt_rank_scale_invariant(scale):
    s = core.make_state([3, 2, 2], [1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1])
    scaled = core.PureState(s.profile, s.amplitudes * scale)
    assert core.schmidt_rank(scaled, {0})[0] == core.schmidt_rank(s, {0})[0]


@settings(max_examples=50, deadline=None)
@given(dims=st.lists(st.integers(2, 5), min_size=2, max_size=4))
def test_mes_exists_order_invariant(dims):
    base = spaces.mes_exists(dims)
    assert spaces.mes_exists(list(reversed(dims))) is base
    assert spaces.mes_exists(sorted(dims)) is base


@pytest.mark.parametrize("dims", [d for d in SMALL_TRIPARTITE if d[0] <= d[1] * d[2]])
def test_maximal_rank_d1_certified(dims):
    state = construct.maximal_rank_d1(dims)
    assert slocc.is_maximal(state)
    assert rank.flattening_lower_bound(state) == dims[0]
    decomp = rank.ProductDecomposition(tuple(construct.rank_d1_terms(dims)))
    bound = rank.certificate_bound(state, decomp)
    assert bound is not None and bound.exact and bound.lower == dims[0]
    assert bound.upper <= spaces.space_rank_bounds(dims).upper


def test_is_maximal_invariant_under_equivalence(phi2_322):
    rng = np.random.default_rng(3)
    for _ in range(20):
        tup = random_invertible_tuple(phi2_322.dims, rng)
        assert slocc.is_maximal(core.apply_local(phi2_322, tup))


def test_classify_invariant_under_pivot_basis_change(phi2_322):
    # mixing the pivot rows by an invertible operator must not change the label
    rng = np.random.default_rng(9)
    for _ in range(20):
        l1 = random_invertible_tuple((3,), rng).ops[0]
        tup = core.LocalOperatorTuple((l1, np.eye(2), np.eye(2)))
        assert slocc.classify_hyperplane(core.apply_local(phi2_322, tup)) == 2


def test_refinement_of_grouped_maximal_states():
    rng = np.random.default_rng(21)
    pairings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    for _ in range(25):
        s = random_state((2, 2, 2, 2), rng)
        refined_maximal = slocc.is_maximal(s)
        for groups in pairings:
            grouped = group_parties(s, groups)
            if slocc.is_maximal(grouped):
                assert refined_maximal


def test_reach_from_mes_random_targets():
    rng = np.random.default_rng(17)
    for dims in [(2, 2), (4, 2), (4, 2, 2), (4, 4), (8, 2, 2, 2)]:
        mes = construct.mes_state(dims)
        for _ in range(20):
            target = random_state(dims, rng)
            out = core.apply_local(mes, slocc.reach_from_mes(dims, target))
            assert np.max(np.abs(out.amplitudes - target.amplitudes)) <= 1e-12


@pytest.mark.parametrize("kappa", [1.0, 1e2, 1e3])
def test_equivalence_tuple_under_ill_conditioned_operators(kappa):
    # both states of every class are images of the canonical one under tuples
    # of condition number kappa; kappa = 1e4 reaches the rank cutoff's limits
    rng = np.random.default_rng(int(kappa))
    for dims in [(3, 2, 2), (5, 3, 2), (11, 4, 3)]:
        for r in range(1, dims[2] + 1):
            canon = construct.canonical_maximal(dims, r)
            for _ in range(3):
                target, source = (core.apply_local(canon, conditioned_tuple(dims, kappa, rng))
                                  for _ in range(2))
                tup = slocc.hyperplane_equivalence_tuple(target, source)
                mapped = core.apply_local(source, tup).amplitudes
                residual = np.linalg.norm(mapped - target.amplitudes) / np.linalg.norm(
                    target.amplitudes)
                assert residual <= 1e-9
                for op in tup.ops:
                    assert np.linalg.matrix_rank(op) == op.shape[0]


def test_complement_class_independent_of_construction():
    # same class reached through different amplitudes gives the same label
    rng = np.random.default_rng(2)
    for r in (1, 2):
        canon = construct.canonical_maximal((3, 2, 2), r)
        for _ in range(10):
            tup = random_invertible_tuple((3, 2, 2), rng)
            moved = core.apply_local(canon, tup)
            assert slocc.classify_hyperplane(moved) == r


def assert_augments(state):
    # full local ranks, no bipartition rank lost, and the input's supports
    # project the added terms away (up to a component at the 1e-9 cutoff)
    before = all_bipartition_ranks(state)
    out = construct.augment_to_full_ranks(state)
    assert core.local_ranks(out).local_ranks == state.dims
    after = all_bipartition_ranks(out)
    assert all(after[cut] >= rank for cut, rank in before.items())
    projected = core.apply_local(out, support_projectors(state)).amplitudes
    scale = np.vdot(state.amplitudes, projected) / np.vdot(state.amplitudes, state.amplitudes)
    assert np.allclose(projected, scale * state.amplitudes,
                       rtol=0, atol=1e-6 * np.abs(state.amplitudes).max())


@pytest.mark.parametrize("kappa", [1.0, 1e2, 1e4])
@pytest.mark.parametrize("dims, kept", [
    ((4, 3, 2), (3, 3, 2)), ((3, 3, 3), (3, 2, 3)),  # one deficient party
    ((4, 3, 2), (3, 2, 2)), ((3, 3, 3), (2, 2, 3)),  # two
    ((4, 3, 3), (3, 2, 2)), ((3, 3, 3), (2, 2, 2)),  # three
])
def test_augment_completes_conditioned_deficient_states(dims, kept, kappa):
    # random states projected to local ranks kept, then mapped by tuples of
    # condition number kappa
    rng = np.random.default_rng(int(kappa))
    project = core.LocalOperatorTuple(tuple(
        np.diag([1.0] * r + [0.0] * (d - r)).astype(complex) for d, r in zip(dims, kept)))
    for _ in range(5):
        deficient = core.apply_local(random_state(dims, rng), project)
        state = core.apply_local(deficient, conditioned_tuple(dims, kappa, rng))
        assert core.local_ranks(state).local_ranks == kept
        assert_augments(state)


@pytest.mark.parametrize("dims", [(3, 2, 2), (4, 3, 2), (3, 3, 3)])
def test_augment_completes_states_straddling_the_cutoff(monkeypatch, dims):
    # each party in turn has a last singular value within ulps of the cutoff
    monkeypatch.delenv("MES_RANK_EPS", raising=False)
    rng = np.random.default_rng(sum(dims))
    for party, d in enumerate(dims):
        for state in straddling_states(dims, party, np.linspace(1, 0.5, d - 1), 2, rng):
            assert_augments(state)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
               1.7976931348623157e308]
CODEC_FLOATS = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@settings(max_examples=100, deadline=None)
@given(parts=st.lists(st.tuples(CODEC_FLOATS, CODEC_FLOATS), min_size=1, max_size=24))
def test_amplitude_codec_exact(parts):
    amps = np.array([complex(re, im) for re, im in parts])
    if not np.any(amps):
        amps[0] = 1.0
    state = core.make_state([amps.size], amps)
    doc = io.state_to_dict(state)
    # the per-amplitude encoding the vectorised codec replaced
    assert doc["amps"] == [[float(z.real), float(z.imag)] for z in state.amplitudes]
    assert json.dumps(doc["amps"]) == json.dumps(
        [[float(z.real), float(z.imag)] for z in state.amplitudes]
    )
    back = io.state_from_dict(json.loads(json.dumps(doc)))
    assert back.amplitudes.tobytes() == state.amplitudes.tobytes()
