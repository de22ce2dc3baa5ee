import numpy as np
import pytest

from _helpers import random_state, straddling_states, support_projectors
from mes import construct, core, rank, slocc
from mes.errors import PreconditionError


def nonzero_indices(state):
    return [tuple(idx) for idx in np.argwhere(state.tensor())]


def test_epr_2(bell):
    assert np.array_equal(construct.epr(2).amplitudes, bell.amplitudes)


def test_epr_3_rank():
    s = construct.epr(3)
    r, _ = core.schmidt_rank(s, {0})
    assert r == 3


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_epr_local_ranks(d):
    assert core.local_ranks(construct.epr(d)).local_ranks == (d, d)


def test_epr_rejects_small_d():
    with pytest.raises(PreconditionError, match=r"dimensions must all be >= 2, got \(1, 1\)"):
        construct.epr(1)


def test_mes_state_422():
    s = construct.mes_state((4, 2, 2))
    assert nonzero_indices(s) == [(0, 0, 0), (1, 0, 1), (2, 1, 0), (3, 1, 1)]


def test_mes_state_bipartite_is_epr():
    assert np.array_equal(
        construct.mes_state((2, 2)).amplitudes, construct.epr(2).amplitudes
    )


def test_mes_state_rejects_322():
    with pytest.raises(PreconditionError, match="no maximum entangled state"):
        construct.mes_state((3, 2, 2))


@pytest.mark.parametrize(
    "dims,expected",
    [
        ((3, 2, 2), [(0, 0, 0), (1, 1, 1), (2, 0, 1)]),
        ((4, 2, 2), [(0, 0, 0), (1, 1, 1), (2, 0, 1), (3, 1, 0)]),
        ((5, 3, 2), [(0, 0, 0), (1, 1, 1), (2, 2, 0), (3, 0, 1), (4, 1, 0)]),
    ],
)
def test_maximal_rank_d1_terms(dims, expected):
    s = construct.maximal_rank_d1(dims)
    assert sorted(nonzero_indices(s)) == sorted(expected)


def test_maximal_rank_d1_full_ranks_and_rank():
    s = construct.maximal_rank_d1((4, 2, 2))
    assert core.local_ranks(s).local_ranks == (4, 2, 2)
    assert rank.flattening_lower_bound(s) == 4
    terms = construct.rank_d1_terms((4, 2, 2))
    assert rank.verify_decomposition(s, rank.ProductDecomposition(tuple(terms)))


def test_maximal_rank_d1_rejects_mes_profile():
    with pytest.raises(PreconditionError, match=r"no state on dims \(5, 2, 2\) has full local"):
        construct.maximal_rank_d1((5, 2, 2))
    with pytest.raises(PreconditionError, match=r"dims \(2, 2, 3\) must be sorted non-increasing"):
        construct.maximal_rank_d1((2, 2, 3))
    # boundary d1 = d2*d3 is allowed
    assert core.is_full_local_ranks(construct.maximal_rank_d1((4, 2, 2)), core.rank_eps())


def test_augment_product_state_gives_ghz(ghz):
    s = core.make_state([2, 2, 2], [1, 0, 0, 0, 0, 0, 0, 0])
    out = construct.augment_to_full_ranks(s)
    # one step, all three parties deficient: |000> plus a phase of |111>
    assert np.allclose(np.abs(out.amplitudes), np.abs(ghz.amplitudes))


def test_augment_ghz_unchanged(ghz):
    out = construct.augment_to_full_ranks(ghz)
    assert np.array_equal(out.amplitudes, ghz.amplitudes)


def test_augment_round_trip():
    # |0>|00> + |1>|01>: only party B is rank deficient
    s = core.make_state([2, 2, 2], [1, 0, 0, 0, 0, 1, 0, 0])
    out = construct.augment_to_full_ranks(s)
    assert core.local_ranks(out).local_ranks == (2, 2, 2)
    projected = core.apply_local(out, support_projectors(s))
    scale = projected.amplitudes[0] / s.amplitudes[0]
    assert np.allclose(projected.amplitudes, scale * s.amplitudes)


def test_augment_reaches_full_ranks_at_the_cutoff(monkeypatch):
    # party 0 has singular values 1, 0.7 and t, t within ulps of the cutoff:
    # whichever side the rank decision falls on, augmentation completes it
    monkeypatch.delenv("MES_RANK_EPS", raising=False)
    for s in straddling_states((3, 2, 2), 0, [1.0, 0.7], 24, np.random.default_rng(0)):
        out = construct.augment_to_full_ranks(s)
        assert core.local_ranks(out).local_ranks == s.dims


def test_augment_never_decreases_bipartition_ranks():
    rng = np.random.default_rng(7)
    for _ in range(10):
        dims = tuple(sorted(rng.integers(2, 5, size=3), reverse=True))
        s = random_state(dims, rng)
        # kill some local ranks by projecting
        ops = []
        for d in dims:
            r = int(rng.integers(1, d + 1))
            p = np.zeros((d, d), dtype=complex)
            p[:r, :r] = np.eye(r)
            ops.append(p)
        s = core.apply_local(s, core.LocalOperatorTuple(tuple(ops)))
        before = core.local_ranks(s).bipartition_ranks
        out = construct.augment_to_full_ranks(s, seed=3)
        after = core.local_ranks(out).bipartition_ranks
        assert all(after[k] >= before[k] for k in before)
        assert core.is_full_local_ranks(out, core.rank_eps())


def test_canonical_maximal_classes():
    for r in (1, 2):
        s = construct.canonical_maximal((3, 2, 2), r)
        assert slocc.is_maximal(s)
        assert slocc.classify_hyperplane(s) == r


def test_canonical_maximal_532():
    s = construct.canonical_maximal((5, 3, 2), 2)
    assert slocc.classify_hyperplane(s) == 2


def test_canonical_maximal_rejects_bad_inputs():
    with pytest.raises(PreconditionError, match=r"requires d1 = d2\*d3 - 1"):
        construct.canonical_maximal((4, 2, 2), 1)
    with pytest.raises(PreconditionError, match="class index 3 outside"):
        construct.canonical_maximal((3, 2, 2), 3)


def test_matmul_tensor_m2():
    s = construct.matmul_tensor(2)
    assert s.dims == (4, 4, 4)
    assert np.sum(np.abs(s.amplitudes)) == 8
    assert set(np.unique(np.abs(s.amplitudes))) == {0.0, 1.0}
    assert core.local_ranks(s).local_ranks == (4, 4, 4)


def test_matmul_tensor_rejects_m1():
    with pytest.raises(PreconditionError, match="matrix size must be >= 2"):
        construct.matmul_tensor(1)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_matmul_tensor_is_bitwise_its_einsum_definition(m):
    eye = np.eye(m, dtype=complex)
    # party indices (a,b), (c,d), (e,f) with a = c = i, b = f = j, d = e = k
    tens = np.einsum("ac,bf,de->abcdef", eye, eye, eye)
    assert np.array_equal(construct.matmul_tensor(m).amplitudes, tens.reshape(-1))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_case1_pair_is_bitwise_its_einsum_definition(d):
    bell = construct.epr(d).tensor()
    pair = np.einsum("ab,cd->abcd", bell, bell)
    first, second = construct.case1_pair(d)
    assert np.array_equal(first.amplitudes, pair.reshape(-1))
    assert np.array_equal(second.amplitudes, pair.transpose(0, 2, 1, 3).reshape(-1))


@pytest.mark.parametrize("d", [1, 0, 2.0])
def test_case1_pair_refuses_as_epr_does(d):
    refusals = []
    for build in (construct.epr, construct.case1_pair):
        with pytest.raises(PreconditionError) as refusal:
            build(d)
        refusals.append(str(refusal.value))
    assert refusals[0] == refusals[1]


def test_case1_pair_cut_ranks():
    a, b = construct.case1_pair(2)
    assert core.schmidt_rank(a, {0, 1})[0] == 1
    assert core.schmidt_rank(a, {0, 2})[0] == 4
    assert core.schmidt_rank(b, {0, 1})[0] == 4
    assert core.schmidt_rank(b, {0, 2})[0] == 1
    assert core.local_ranks(a).local_ranks == (2, 2, 2, 2)
    assert core.local_ranks(b).local_ranks == (2, 2, 2, 2)
