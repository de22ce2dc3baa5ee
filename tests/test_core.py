import numpy as np
import pytest

from _helpers import identity_tuple, random_invertible_tuple, random_state
from mes import construct, core, rank, slocc
from mes.core import (
    LocalOperatorTuple,
    apply_local,
    group_parties,
    local_ranks,
    make_state,
    schmidt_rank,
)
from mes.errors import (
    EmptyOrFullSubset,
    InvalidPartition,
    LengthMismatch,
    NonFiniteAmplitudes,
    PivotRankDeficient,
    ShapeMismatch,
    UndecidableError,
    ZeroResult,
    ZeroState,
)


def test_make_state_valid(bell):
    assert bell.dims == (2, 2)
    assert bell.amplitudes[0] == 1


def test_make_state_rejects_zero():
    with pytest.raises(ZeroState):
        make_state([2], [0, 0])


def test_make_state_rejects_length_mismatch():
    with pytest.raises(LengthMismatch):
        make_state([2, 2], [1, 0, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_make_state_rejects_non_finite(bad):
    with pytest.raises(NonFiniteAmplitudes):
        make_state([2, 2], [1, 0, 0, bad])


def test_state_owns_its_amplitudes():
    amps = np.array([1, 0, 0, 0], dtype=complex)
    s = make_state((2, 2), amps)
    amps[3] = 1
    assert schmidt_rank(s, {0})[0] == 1
    assert s.amplitudes[3] == 0


def test_make_state_phi2(phi2_322):
    assert phi2_322.profile.k == 1
    assert phi2_322.profile.tail_product == 4


def test_profile_derived_quantities():
    prof = core.DimsProfile([2, 3, 5])
    assert prof.sorted_desc == (5, 3, 2)
    assert prof.tail_product == 6
    assert prof.k == 1
    assert core.DimsProfile([2, 2]).k is None


def test_schmidt_rank_bell(bell):
    r, svals = schmidt_rank(bell, {0})
    assert r == 2
    assert np.allclose(svals, [1, 1])


def test_schmidt_rank_product_state():
    s = make_state([2, 2, 2], [1, 0, 0, 0, 0, 0, 0, 0])
    assert schmidt_rank(s, {0})[0] == 1


def test_schmidt_rank_phi2_A_flattening(phi2_322):
    # oracle: brute-force matrix rank of the 3x4 flattening
    mat = phi2_322.amplitudes.reshape(3, 4)
    assert np.linalg.matrix_rank(mat) == 3
    assert schmidt_rank(phi2_322, {0})[0] == 3


def test_schmidt_rank_rejects_improper_subset(bell):
    with pytest.raises(EmptyOrFullSubset):
        schmidt_rank(bell, set())
    with pytest.raises(EmptyOrFullSubset):
        schmidt_rank(bell, {0, 1})


def test_local_ranks_phi1(phi1_322):
    assert local_ranks(phi1_322).local_ranks == (3, 2, 2)


def test_local_ranks_product_state():
    s = make_state([2, 2, 2], [1, 0, 0, 0, 0, 0, 0, 0])
    assert local_ranks(s).local_ranks == (1, 1, 1)


def test_local_ranks_w_state(w_state):
    # oracle: ranks of the three 2x4 flattenings
    prof = local_ranks(w_state)
    assert prof.local_ranks == (2, 2, 2)
    assert len(prof.bipartition_ranks) == 3
    assert prof.bipartition_ranks[(0,)] == 2


def test_bipartition_count_four_parties():
    rng = np.random.default_rng(0)
    s = random_state([2, 2, 2, 2], rng)
    prof = local_ranks(s)
    assert len(prof.bipartition_ranks) == 7


def test_apply_local_identity(ghz):
    out = apply_local(ghz, identity_tuple(ghz.dims))
    assert np.array_equal(out.amplitudes, ghz.amplitudes)


def test_apply_local_projector_recovers_augmented(phi1_322):
    # add an A-orthogonal product term, then project back onto the support
    tens = np.zeros((4, 2, 2), dtype=complex)
    tens[:3] = phi1_322.tensor()
    tens[3, 1, 0] = 1.0
    extended = core.PureState(core.DimsProfile((4, 2, 2)), tens.reshape(-1))
    proj = np.zeros((3, 4), dtype=complex)
    proj[:, :3] = np.eye(3)
    out = apply_local(
        extended, LocalOperatorTuple((proj, np.eye(2), np.eye(2)))
    )
    assert np.array_equal(out.amplitudes, phi1_322.amplitudes)


def test_apply_local_projector_on_bell(bell):
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    out = apply_local(bell, LocalOperatorTuple((p0, np.eye(2))))
    assert np.array_equal(out.amplitudes, [1, 0, 0, 0])


def test_apply_local_zero_result(bell):
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    # first party projected to |1>, second to |0>: annihilates |00>+|11>
    with pytest.raises(ZeroResult):
        apply_local(bell, LocalOperatorTuple((p1, p0)))


def test_apply_local_shape_mismatch(bell):
    with pytest.raises(ShapeMismatch):
        apply_local(bell, LocalOperatorTuple((np.eye(3), np.eye(2))))


def test_group_parties_ghz(ghz):
    grouped = group_parties(ghz, ((0,), (1, 2)))
    assert grouped.dims == (2, 4)
    assert np.array_equal(grouped.amplitudes, ghz.amplitudes)


def test_group_parties_product_across_cut():
    from mes.construct import case1_pair

    first, _ = case1_pair(2)
    grouped = group_parties(first, ((0, 1), (2, 3)))
    assert schmidt_rank(grouped, {0})[0] == 1


def test_group_parties_invalid_partition(ghz):
    with pytest.raises(InvalidPartition):
        group_parties(ghz, ((0,), (1,)))
    with pytest.raises(InvalidPartition):
        group_parties(ghz, ((0, 1), (1, 2)))


def test_rank_eps_env_override(monkeypatch):
    monkeypatch.setenv("MES_RANK_EPS", "0.5")
    s = make_state([2, 2], [1, 0, 0, 1e-3])
    assert schmidt_rank(s, {0})[0] == 1
    monkeypatch.delenv("MES_RANK_EPS")
    assert schmidt_rank(s, {0})[0] == 2


@pytest.mark.parametrize("value", ["0", "1", "-1e-9", "nan", "inf", "tight"])
def test_rank_eps_rejects_bad_override(monkeypatch, value):
    monkeypatch.setenv("MES_RANK_EPS", value)
    with pytest.raises(ValueError):
        core.rank_eps()


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices passed to numpy.linalg.svd during the test."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def test_one_svd_per_distinct_cut_tripartite(svd_calls):
    s = random_state((3, 3, 3), np.random.default_rng(1))
    assert slocc.is_maximal(s)
    local_ranks(s)
    assert rank.flattening_lower_bound(s) == 3
    assert len(svd_calls) == 3


def test_one_svd_per_distinct_cut_six_qubits(svd_calls):
    s = random_state((2,) * 6, np.random.default_rng(2))
    local_ranks(s)
    assert len(svd_calls) == 31


def test_cut_and_complement_share_singular_values(svd_calls):
    s = random_state((2, 3, 4), np.random.default_rng(3))
    r1, sv1 = schmidt_rank(s, {1})
    r02, sv02 = schmidt_rank(s, {0, 2})
    assert r1 == r02 == 3
    assert sv1 is sv02
    assert not sv1.flags.writeable
    assert len(svd_calls) == 1


def test_orthocomplement_basis():
    rows = np.array([[1, 0, 0, 0], [0, 1, 1j, 0]], dtype=complex)
    comp = core.orthocomplement_basis(rows)
    assert comp.shape == (4, 2)
    assert np.allclose(np.conj(rows) @ comp, 0)
    assert np.allclose(comp.conj().T @ comp, np.eye(2))


@pytest.mark.parametrize("eps, rank", [(None, 3), ("1e-6", 2)])
def test_every_rank_decision_shares_the_cutoff(monkeypatch, eps, rank):
    # singular values 1, 0.5, 1e-7: the default cutoff keeps the smallest, 1e-6 drops it
    if eps is None:
        monkeypatch.delenv("MES_RANK_EPS", raising=False)
    else:
        monkeypatch.setenv("MES_RANK_EPS", eps)
    rng = np.random.default_rng(5)
    u, v = (np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
            for _ in range(2))
    m = u @ np.diag([1.0, 0.5, 1e-7]) @ v
    state = make_state([3, 3], m)
    assert schmidt_rank(state, {0})[0] == rank
    assert core.orthocomplement_basis(m).shape[1] == 3 - rank
    projector = construct.support_projectors(state).ops[0]
    assert np.trace(projector).real == pytest.approx(rank)
    # the factor A of m = A @ N_r @ B.T keeps sigma_i for i < r and puts 1 elsewhere
    a, _ = slocc._bipartite_slocc_factors(m)
    assert (np.linalg.svd(a, compute_uv=False)[-1] < 1e-3) == (rank == 3)


def test_numerical_rank_of_nothing_is_zero():
    assert core.numerical_rank(np.zeros(0)) == 0


def test_hyperplane_equivalence_computes_each_complement_once(svd_calls):
    # 3 local ranks and 2 complement SVDs per state, then 2 bipartite normal forms
    target = construct.canonical_maximal((3, 2, 2), 2)
    tup = random_invertible_tuple(target.dims, np.random.default_rng(6))
    source = apply_local(target, tup)
    svd_calls.clear()
    slocc.hyperplane_equivalence_tuple(target, source)
    assert len(svd_calls) == 12


def test_complement_map_decides_pivot_rank_once(svd_calls):
    # one SVD of the pivot flattening, one for the label
    state = construct.canonical_maximal((5, 3, 2), 1)
    svd_calls.clear()
    assert slocc.complement_map(state, 0).label == 1
    assert len(svd_calls) == 2


def test_numerical_rank_of_overflowed_singular_values_is_undecidable():
    with pytest.raises(UndecidableError):
        core.numerical_rank(np.array([np.inf, 0.0]))


@pytest.mark.parametrize("entry", [np.nan, 1e308])
def test_apply_local_rejects_non_finite_result(bell, entry):
    op = np.full((2, 2), entry, dtype=complex)
    with pytest.raises(NonFiniteAmplitudes):
        apply_local(bell, LocalOperatorTuple((op, op)))


def test_array_holders_compare_and_hash_by_identity(bell):
    twin = make_state([2, 2], [1, 0, 0, 1])
    assert bell == bell and bell != twin
    assert len({bell, twin, bell}) == 2
    ops = LocalOperatorTuple((np.eye(2), np.eye(2)))
    assert ops != LocalOperatorTuple((np.eye(2), np.eye(2))) and len({ops, ops}) == 1
    strassen = rank.strassen_decomposition()
    assert strassen != rank.strassen_decomposition() and len({strassen, strassen}) == 1


def test_memoised_answers_follow_every_cutoff_switch(monkeypatch):
    # party 0 has singular values 1, 1, 1e-7: the default cutoff keeps the smallest, 1e-6 drops it
    shrink = LocalOperatorTuple((np.diag([1, 1, 1e-7]), np.eye(2), np.eye(2)))
    state = apply_local(construct.canonical_maximal((3, 2, 2), 1), shrink)
    for eps in (None, "1e-6", None):
        if eps is None:
            monkeypatch.delenv("MES_RANK_EPS", raising=False)
        else:
            monkeypatch.setenv("MES_RANK_EPS", eps)
        full = eps is None
        assert schmidt_rank(state, {0})[0] == (3 if full else 2)
        assert local_ranks(state).local_ranks == ((3, 2, 2) if full else (2, 2, 2))
        assert slocc.is_maximal(state) is full
        if full:
            assert slocc.complement_map(state, 0).label == 1
        else:
            with pytest.raises(PivotRankDeficient):
                slocc.complement_map(state, 0)


def test_second_local_ranks_decides_nothing(svd_calls, monkeypatch):
    decisions = []
    numerical_rank = core.numerical_rank

    def counting_rank(svals, *args):
        decisions.append(svals.size)
        return numerical_rank(svals, *args)

    monkeypatch.setattr(core, "numerical_rank", counting_rank)
    s = random_state((2,) * 6, np.random.default_rng(7))
    first = local_ranks(s)
    assert len(svd_calls) == len(decisions) == 31
    svd_calls.clear()
    decisions.clear()
    assert local_ranks(s) == first
    assert svd_calls == decisions == []


def test_complement_after_classification_makes_no_svd(svd_calls):
    tup = random_invertible_tuple((5, 3, 2), np.random.default_rng(8))
    state = apply_local(construct.canonical_maximal((5, 3, 2), 2), tup)
    assert slocc.classify_hyperplane(state) == 2
    svd_calls.clear()
    cc = slocc.complement_map(state, 0)
    assert cc.label == 2
    assert svd_calls == []
    assert slocc.complement_map(state, 0) is cc
