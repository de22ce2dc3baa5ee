import inspect
import itertools
import math

import numpy as np
import pytest

from _helpers import identity_tuple, random_invertible_tuple, random_state, support_projectors
from mes import construct, core, rank, slocc, spaces
from mes.core import (
    LocalOperatorTuple,
    apply_local,
    local_ranks,
    make_state,
    schmidt_rank,
)
from mes.errors import PreconditionError, UndecidableError


def test_make_state_valid(bell):
    assert bell.dims == (2, 2)
    assert bell.amplitudes[0] == 1


# every state is checked by PureState itself: make_state adds no check of its own
CONSTRUCTORS = (make_state, lambda dims, amps: core.PureState(spaces.DimsProfile(dims), amps))


def test_make_state_rejects_zero():
    for build in CONSTRUCTORS:
        with pytest.raises(PreconditionError, match="all amplitudes are zero"):
            build([2], [0, 0])


def test_make_state_rejects_length_mismatch():
    for build in CONSTRUCTORS:
        with pytest.raises(PreconditionError, match="expected 4 amplitudes"):
            build([2, 2], [1, 0, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_make_state_rejects_non_finite(bad):
    for build in CONSTRUCTORS:
        with pytest.raises(PreconditionError, match="amplitudes must be finite"):
            build([2, 2], [1, 0, 0, bad])


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
    prof = spaces.DimsProfile([2, 3, 5])
    assert prof.sorted_desc == (5, 3, 2)
    assert prof.tail_product == 6
    assert prof.k == 1
    assert spaces.DimsProfile([2, 2]).k is None


@pytest.mark.parametrize(
    "dims",
    [(2.5, 2), ("3", 2), (True, 3), (2, np.float64(2.0)), (np.bool_(True), 2), (3.0, 2),
     (2, None)],
    ids=["float", "str", "bool", "numpy-float", "numpy-bool", "integral-float", "none"],
)
def test_profile_rejects_non_integer_dimensions(dims):
    with pytest.raises(PreconditionError, match="dimensions must be integers"):
        spaces.DimsProfile(dims)
    with pytest.raises(PreconditionError, match="dimensions must be integers"):
        spaces.mes_exists(dims)


def test_profile_keeps_python_and_numpy_integers():
    dims = spaces.DimsProfile((np.int64(3), np.uint8(2), 2)).dims
    assert dims == (3, 2, 2) and all(type(d) is int for d in dims)


# the profile gates in the order every question applies them: party count,
# then dimensions, then order, then deficiency; each with its message
PROFILE_GATES = {
    "two": (lambda d: len(d) >= 2, "at least two parties required"),
    "three": (lambda d: len(d) == 3, "three parties required"),
    "dims": (lambda d: min(d) >= 2, "dimensions must all be >= 2"),
    "sorted": (lambda d: list(d) == sorted(d, reverse=True), "must be sorted non-increasing"),
    "mes": (lambda d: max(d) ** 2 >= math.prod(d), "no maximum entangled state"),
    "hyperplane": (lambda d: d[1] * d[2] - d[0] == 1, r"requires d1 = d2\*d3 - 1"),
    "full-ranks": (lambda d: max(d) ** 2 <= math.prod(d), "has full local ranks"),
}
# entry point -> (call on a profile, the gates it applies)
PROFILE_QUESTIONS = {
    "mes_exists": (spaces.mes_exists, ["two", "dims"]),
    "finite_class_catalog": (spaces.finite_class_catalog, ["two", "dims"]),
    "space_rank_bounds": (spaces.space_rank_bounds, ["three", "sorted"]),
    "reach_from_mes": (lambda d: slocc.reach_from_mes(d, make_state([2, 2], [1, 0, 0, 1])),
                       ["two", "dims", "sorted", "mes"]),
    "mes_state": (construct.mes_state, ["two", "dims", "sorted", "mes"]),
    "maximal_rank_d1": (construct.maximal_rank_d1, ["three", "dims", "sorted", "full-ranks"]),
    "canonical_maximal": (lambda d: construct.canonical_maximal(d, 1),
                          ["three", "dims", "sorted", "hyperplane"]),
    "epr": (lambda d: construct.epr(d[0]), ["two", "dims", "sorted", "mes"]),
    "augment_to_full_ranks": (
        lambda d: construct.augment_to_full_ranks(random_state(d, np.random.default_rng(0))),
        ["three", "full-ranks"]),
}
BAD_PROFILES = [(5,), (5, 1), (2, 3), (2, 2, 3), (4, 2, 2, 2), (1, 1, 1), (2, 5, 2)]


@pytest.mark.parametrize("question, dims", [
    *((question, dims) for question in PROFILE_QUESTIONS if question != "epr"
      for dims in BAD_PROFILES),
    ("epr", (1, 1)),
], ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else v)
def test_each_refusal_names_the_first_gate_broken(question, dims):
    ask, gates = PROFILE_QUESTIONS[question]
    first = next((PROFILE_GATES[gate][1] for gate in gates
                  if not PROFILE_GATES[gate][0](dims)), None)
    if first is None:
        ask(dims)  # no gate of this question refuses the profile
        return
    with pytest.raises(PreconditionError, match=first):
        ask(dims)


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
    with pytest.raises(PreconditionError, match="proper non-empty subset"):
        schmidt_rank(bell, set())
    with pytest.raises(PreconditionError, match="proper non-empty subset"):
        schmidt_rank(bell, {0, 1})
    for out_of_range in ({0, 5}, {-1}):
        with pytest.raises(PreconditionError, match=r"parties 0\.\.1"):
            schmidt_rank(bell, out_of_range)


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


def _tensordot_reference(state, tup):
    tens = state.tensor()
    for i, op in enumerate(tup.ops):
        tens = np.moveaxis(np.tensordot(op, tens, axes=(1, i)), 0, i)
    return tens.reshape(-1)


# C-ordered and rectangular, a transposed view, Fortran-ordered, a strided slice
OPERATOR_LAYOUTS = {
    "rectangular": lambda op: op,
    "transposed": lambda op: op.T.copy().T,
    "fortran": np.asfortranarray,
    "sliced": lambda op: np.kron(op, np.ones((2, 3)))[::2, ::3],
}


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("layout", OPERATOR_LAYOUTS)
def test_apply_local_is_bitwise_tensordot(n, layout):
    rng = np.random.default_rng(n)
    dims = tuple(int(d) for d in rng.integers(1, 4, size=n))
    state = random_state(dims, rng)
    ops = []
    for d in dims:
        rows = int(rng.integers(1, 4))
        ops.append(OPERATOR_LAYOUTS[layout](rng.standard_normal((rows, d))
                                            + 1j * rng.standard_normal((rows, d))))
    tup = LocalOperatorTuple(tuple(ops))
    assert np.array_equal(apply_local(state, tup).amplitudes, _tensordot_reference(state, tup))


def test_flattening_is_the_transpose_of_every_subset():
    state = random_state((2, 3, 1, 4), np.random.default_rng(3))
    tens = state.tensor()
    for size in range(5):
        for sub in itertools.combinations(range(4), size):
            rest = [i for i in range(4) if i not in sub]
            rows = math.prod(state.dims[i] for i in sub)
            expected = tens.transpose(list(sub) + rest).reshape(rows, -1)
            for asked in (sub, sub[::-1], sub + sub, set(sub)):  # sorted, unsorted, repeated
                assert np.array_equal(core.flattening(state, asked), expected)
    for out_of_range in ({4}, {-1}, {0, 5}):
        with pytest.raises(PreconditionError, match=r"must lie in 0\.\.3"):
            core.flattening(state, out_of_range)


def test_apply_local_identity(ghz):
    out = apply_local(ghz, identity_tuple(ghz.dims))
    assert np.array_equal(out.amplitudes, ghz.amplitudes)


def test_apply_local_projector_recovers_augmented(phi1_322):
    # add an A-orthogonal product term, then project back onto the support
    tens = np.zeros((4, 2, 2), dtype=complex)
    tens[:3] = phi1_322.tensor()
    tens[3, 1, 0] = 1.0
    extended = core.PureState(spaces.DimsProfile((4, 2, 2)), tens.reshape(-1))
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
    with pytest.raises(PreconditionError, match="all amplitudes are zero"):
        apply_local(bell, LocalOperatorTuple((p1, p0)))


def test_apply_local_shape_mismatch(bell):
    with pytest.raises(PreconditionError, match="operator 0 has 3 columns"):
        apply_local(bell, LocalOperatorTuple((np.eye(3), np.eye(2))))


@pytest.mark.parametrize("refused, refusal", [
    (lambda: LocalOperatorTuple(([1, 2],)), "operator 0 is not a matrix"),
], ids=["vector-operator"])
def test_malformed_arguments_are_refused(refused, refusal):
    with pytest.raises(PreconditionError, match=refusal):
        refused()


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
    comp = core.orthocomplement_basis(rows, 2)
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
    decided = schmidt_rank(state, {0})[0]
    assert decided == rank
    assert core.orthocomplement_basis(m, decided).shape[1] == 3 - rank
    projector = support_projectors(state).ops[0]
    assert np.trace(projector).real == pytest.approx(rank)


def test_hyperplane_equivalence_computes_each_complement_once(svd_calls):
    # 3 local ranks and 2 complement SVDs per state, then 2 bipartite normal forms
    target = construct.canonical_maximal((3, 2, 2), 2)
    tup = random_invertible_tuple(target.dims, np.random.default_rng(6))
    source = apply_local(target, tup)
    svd_calls.clear()
    slocc.hyperplane_equivalence_tuple(target, source)
    assert len(svd_calls) == 12


def test_augmentation_finds_each_support_once_per_step(svd_calls):
    # |000> + |111> in (3,2,2) takes one step: 3 input ranks, party 0's
    # column and row orthocomplements, then 3 ranks of the candidate
    state = make_state([3, 2, 2], [1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0])
    out = construct.augment_to_full_ranks(state)
    assert local_ranks(out).local_ranks == (3, 2, 2)
    assert len(svd_calls) == 8


@pytest.mark.parametrize("dims", [(5, 2, 2), (9, 2, 2), (3, 2, 1), (2, 5, 2)])
def test_augmentation_refuses_a_profile_without_full_rank_states(svd_calls, dims):
    # a party larger than the product of the others cannot reach full rank:
    # the profile says so before any rank is decided
    state = random_state(dims, np.random.default_rng(2))
    with pytest.raises(PreconditionError,
                       match=rf"no state on dims \({', '.join(map(str, dims))}\) has full"):
        construct.augment_to_full_ranks(state)
    assert svd_calls == []


def test_complement_map_decides_pivot_rank_once(svd_calls):
    # one SVD decides the pivot cut (kept for every later question), one
    # gives the basis of its orthocomplement, one decides the label
    state = construct.canonical_maximal((5, 3, 2), 1)
    svd_calls.clear()
    assert slocc.complement_map(state, 0).label == 1
    assert len(svd_calls) == 3


def test_numerical_rank_of_overflowed_singular_values_is_undecidable():
    with pytest.raises(UndecidableError):
        core.numerical_rank(np.array([np.inf, 0.0]), core.rank_eps())


@pytest.mark.parametrize("entry", [np.nan, 1e308])
def test_apply_local_rejects_non_finite_result(bell, entry):
    op = np.full((2, 2), entry, dtype=complex)
    with pytest.raises(PreconditionError, match="amplitudes must be finite"):
        apply_local(bell, LocalOperatorTuple((op, op)))


def test_array_holders_compare_and_hash_by_identity(bell):
    twin = make_state([2, 2], [1, 0, 0, 1])
    assert bell == bell and bell != twin
    assert len({bell, twin, bell}) == 2
    ops = LocalOperatorTuple((np.eye(2), np.eye(2)))
    assert ops != LocalOperatorTuple((np.eye(2), np.eye(2))) and len({ops, ops}) == 1
    strassen = rank.strassen_decomposition()
    assert strassen != rank.strassen_decomposition() and len({strassen, strassen}) == 1


def test_array_holders_own_what_they_hold():
    # a state owns a read-only copy of its amplitudes and no record rebinds
    # a field, so what a state remembers cannot go stale
    source = np.array([1, 0, 0, 1], dtype=complex)
    state = make_state([2, 2], source)
    source[0] = 5
    assert state.amplitudes.tolist() == [1, 0, 0, 1]
    with pytest.raises(ValueError):
        state.amplitudes[0] = 5
    ops = LocalOperatorTuple((np.eye(2), np.eye(2)))
    strassen = rank.strassen_decomposition()
    for record, name in [(state, "amplitudes"), (state, "profile"), (ops, "ops"),
                         (strassen, "terms")]:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


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
            with pytest.raises(PreconditionError, match="pivot local rank"):
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


def test_local_ranks_are_remembered_and_returned_fresh(svd_calls, monkeypatch):
    s = random_state((2,) * 4, np.random.default_rng(5))
    first = local_ranks(s)
    svd_calls.clear()
    first.bipartition_ranks[(0,)] = 0
    second = local_ranks(s)
    assert svd_calls == []
    assert second.bipartition_ranks[(0,)] == 2
    assert second.bipartition_ranks is not first.bipartition_ranks
    monkeypatch.setenv("MES_RANK_EPS", "1e-6")
    assert local_ranks(s) == second
    assert len(svd_calls) == 7  # a new cutoff decides every cut again


def test_complement_after_classification_makes_no_svd(svd_calls):
    tup = random_invertible_tuple((5, 3, 2), np.random.default_rng(8))
    state = apply_local(construct.canonical_maximal((5, 3, 2), 2), tup)
    assert slocc.classify_hyperplane(state) == 2
    svd_calls.clear()
    cc = slocc.complement_map(state, 0)
    assert cc.label == 2
    assert svd_calls == []
    assert slocc.complement_map(state, 0) is cc


def test_witness_stops_at_the_first_pair_of_cuts(svd_calls):
    # 3 of the 7 canonical cuts per state decide the witness ((0, 2), (0, 1))
    a, b = construct.case1_pair(2)
    assert slocc.incomparability_witness(a, b) == ((0, 2), (0, 1))
    assert len(svd_calls) == 6


def test_remember_keeps_one_value_per_key_and_cutoff(bell):
    calls = []

    def compute(value):
        calls.append(value)
        return value

    assert bell.remember("k", 0.1, compute, 1) == 1
    assert bell.remember("k", 0.1, compute, 2) == 1
    assert calls == [1]
    # a switch a -> b -> a computes each time: the entry is replaced, not added to
    assert bell.remember("k", 0.2, compute, 2) == 2
    assert bell.remember("k", 0.1, compute, 3) == 3
    assert calls == [1, 2, 3]
    assert bell.remember("other", 0.1, compute, 4) == 4

    def fail():
        calls.append("fail")
        raise UndecidableError("no answer")

    for _ in range(2):
        with pytest.raises(UndecidableError):
            bell.remember("failed", 0.1, fail)
    assert calls == [1, 2, 3, 4, "fail", "fail"]



def _hyperplane_pair():
    target = construct.canonical_maximal((3, 2, 2), 2)
    tup = random_invertible_tuple(target.dims, np.random.default_rng(6))
    return target, apply_local(target, tup)


def _fresh(dims):
    return random_state(dims, np.random.default_rng(1))


# each public function of a state on fresh inputs, and how often it reads
# MES_RANK_EPS: once per question, after its gates, and never outside one
CUTOFF_READS = [
    (schmidt_rank, lambda: (_fresh((2, 3, 2)), {1}), 1),
    (local_ranks, lambda: (_fresh((2, 3, 2)),), 1),
    (slocc.is_maximal, lambda: (construct.canonical_maximal((3, 2, 2), 1),), 1),
    (slocc.complement_map, lambda: (construct.canonical_maximal((5, 3, 2), 1), 0), 1),
    (slocc.classify_hyperplane, lambda: (construct.canonical_maximal((3, 2, 2), 1),), 1),
    (slocc.equivalent, lambda: (construct.epr(3), _fresh((3, 3))), 1),
    (slocc.incomparability_witness, lambda: construct.case1_pair(2), 1),
    (rank.flattening_lower_bound, lambda: (_fresh((2, 2, 3)),), 1),
    (construct.canonical_maximal, lambda: ((5, 3, 2), 2), 0),
    (construct.augment_to_full_ranks,
     lambda: (make_state([3, 2, 2], [1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0]),), 1),
    (slocc.equivalent, _hyperplane_pair, 1),
    (slocc.hyperplane_equivalence_tuple, _hyperplane_pair, 1),
    (core.flattening, lambda: (_fresh((2, 3, 2)), {1}), 0),
    (apply_local, lambda: (_fresh((2, 3, 2)), identity_tuple((2, 3, 2))), 0),
    (slocc.reach_from_mes, lambda: ((4, 2, 2), _fresh((4, 2, 2))), 0),
    (rank.verify_decomposition,
     lambda: (construct.matmul_tensor(2), rank.strassen_decomposition()), 0),
    (rank.certificate_bound,
     lambda: (construct.matmul_tensor(2), rank.strassen_decomposition()), 1),
]


@pytest.mark.parametrize("ask, inputs, reads", CUTOFF_READS,
                         ids=lambda p: getattr(p, "__name__", None))
def test_each_question_reads_the_cutoff_once(monkeypatch, ask, inputs, reads):
    args = inputs()
    rank_eps, calls = core.rank_eps, []
    monkeypatch.setattr(core, "rank_eps", lambda: calls.append(1) or rank_eps())
    ask(*args)
    assert len(calls) == reads


def test_every_function_of_a_state_has_its_cutoff_reads_pinned():
    # a function that takes a state and no cutoff reads the cutoff itself, if
    # at all; one missing from CUTOFF_READS could read it twice unnoticed
    def takes_a_state_not_a_cutoff(fn):
        params = inspect.signature(fn).parameters
        return "eps" not in params and any(
            p.annotation in ("PureState", core.PureState) for p in params.values())

    unpinned = {
        f"{module.__name__}.{name}"
        for module in (core, slocc, rank, construct)
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if fn.__module__ == module.__name__ and not name.startswith("_")
        and takes_a_state_not_a_cutoff(fn)
    } - {f"{ask.__module__}.{ask.__name__}" for ask, _, _ in CUTOFF_READS}
    assert unpinned == set()
