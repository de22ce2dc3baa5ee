import numpy as np
import pytest

from _helpers import random_invertible_tuple, straddling_states
from mes import construct, core, slocc, spaces
from mes.errors import PreconditionError, UndecidableError


class TestMesExists:
    @pytest.mark.parametrize(
        "dims,expected",
        [
            ((4, 2, 2), True),
            ((2, 2, 2), False),
            ((2, 2), True),
            ((3, 3, 3, 3), False),
            ((8, 2, 2, 2), True),
        ],
    )
    def test_known_profiles(self, dims, expected):
        assert spaces.mes_exists(dims) is expected

    def test_order_invariant(self):
        assert spaces.mes_exists((2, 2, 4)) is True
        assert spaces.mes_exists((2, 4, 2)) is True

    def test_rejects_trivial_party(self):
        with pytest.raises(PreconditionError, match="dimensions must all be >= 2"):
            spaces.mes_exists((2, 1))

    def test_rejects_single_party(self):
        with pytest.raises(PreconditionError, match="at least two parties required"):
            spaces.mes_exists((5,))


class TestIsMaximal:
    def test_phi2(self, phi2_322):
        assert slocc.is_maximal(phi2_322)

    def test_ghz(self, ghz):
        assert slocc.is_maximal(ghz)

    def test_deficient_party(self):
        s = core.make_state([2, 2, 2], [1, 0, 0, 0, 0, 1, 0, 0])
        assert not slocc.is_maximal(s)


class TestComplementMap:
    def test_phi1(self, phi1_322):
        cc = slocc.complement_map(phi1_322, 0)
        assert cc.k == 1
        assert cc.label == 1
        # the complement is |10> up to phase
        amps = cc.complement_state.amplitudes
        assert np.isclose(np.abs(amps[2]), 1)
        assert np.allclose(np.delete(amps, 2), 0)

    def test_phi2(self, phi2_322):
        cc = slocc.complement_map(phi2_322, 0)
        assert cc.label == 2
        amps = cc.complement_state.amplitudes
        # proportional to |01> - |10>
        assert np.isclose(np.abs(amps[1]), np.abs(amps[2]))
        assert np.isclose(amps[1] + amps[2], 0)
        assert np.allclose(amps[[0, 3]], 0)

    def test_derived_322_example(self):
        s = core.make_state([3, 2, 2], [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0])
        cc = slocc.complement_map(s, 0)
        amps = cc.complement_state.amplitudes
        assert np.isclose(np.abs(amps[3]), 1)
        assert np.allclose(amps[:3], 0)
        assert cc.label == 1

    def test_pivot_rank_deficient(self):
        s = core.make_state([3, 2, 2], [1] + [0] * 11)
        with pytest.raises(PreconditionError, match="pivot local rank"):
            slocc.complement_map(s, 0)

    def test_pivot_gate_agrees_with_the_pivot_rank(self, monkeypatch):
        # party 1 has singular values 1 and t, t within ulps of the cutoff: the
        # complement exists iff the pivot's decided rank is full, and a
        # refusal names that rank
        monkeypatch.delenv("MES_RANK_EPS", raising=False)
        for s in straddling_states((3, 2, 2), 1, [1.0], 24, np.random.default_rng(0)):
            rank = core.schmidt_rank(s, {1})[0]
            if rank == s.dims[1]:
                slocc.complement_map(s, 1)
            else:
                with pytest.raises(PreconditionError,
                                   match=f"pivot local rank {rank} < dimension 2"):
                    slocc.complement_map(s, 1)

    @pytest.mark.parametrize("pivot", [-1, 3])
    def test_pivot_out_of_range(self, phi1_322, pivot):
        with pytest.raises(PreconditionError, match=f"pivot {pivot} out of range"):
            slocc.complement_map(phi1_322, pivot)

    def test_nonpositive_k(self):
        s = construct.mes_state((4, 2, 2))
        with pytest.raises(PreconditionError, match="pivot dimension 4 >= product of the rest"):
            slocc.complement_map(s, 0)

    def test_complement_local_rank_is_k(self):
        s = construct.canonical_maximal((5, 3, 2), 2)
        cc = slocc.complement_map(s, 0)
        assert core.schmidt_rank(cc.complement_state, {0})[0] == cc.k == 1


class TestClassifyHyperplane:
    def test_eq_states(self, phi1_322, phi2_322):
        assert slocc.classify_hyperplane(phi1_322) == 1
        assert slocc.classify_hyperplane(phi2_322) == 2

    def test_invariance_under_invertible_tuples(self, phi2_322):
        rng = np.random.default_rng(0)
        for _ in range(20):
            tup = random_invertible_tuple(phi2_322.dims, rng)
            assert slocc.classify_hyperplane(core.apply_local(phi2_322, tup)) == 2

    def test_rejects_non_hyperplane(self, ghz):
        with pytest.raises(PreconditionError, match=r"requires d1 = d2\*d3 - 1"):
            slocc.classify_hyperplane(ghz)

    def test_rejects_non_maximal(self):
        s = core.make_state([3, 2, 2], [1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0])
        with pytest.raises(PreconditionError, match="does not have full local ranks"):
            slocc.classify_hyperplane(s)


class TestEquivBipartite:
    def test_same_rank_different_scale(self):
        a = core.make_state([2, 2], [1, 0, 0, 1])
        b = core.make_state([2, 2], [1, 0, 0, 2])
        assert slocc.equivalent(a, b)

    def test_different_rank(self):
        a = core.make_state([2, 2], [1, 0, 0, 0])
        b = core.make_state([2, 2], [1, 0, 0, 1])
        assert not slocc.equivalent(a, b)

    def test_complement_states_inequivalent(self):
        a = core.make_state([2, 2], [0, 0, 1, 0])  # |10>
        b = core.make_state([2, 2], [0, 1, -1, 0])  # |01> - |10>
        assert not slocc.equivalent(a, b)

    def test_validation(self, ghz, bell):
        with pytest.raises(UndecidableError):
            slocc.equivalent(ghz, ghz)
        with pytest.raises(PreconditionError, match="dims differ"):
            slocc.equivalent(bell, core.make_state([3, 3], [1] + [0] * 8))


class TestEquivalent:
    @pytest.mark.parametrize("r", [1, 2])
    def test_equal_hyperplane_labels(self, r):
        canon = construct.canonical_maximal((5, 3, 2), r)
        tup = random_invertible_tuple(canon.dims, np.random.default_rng(r))
        assert slocc.equivalent(canon, core.apply_local(canon, tup))

    def test_different_hyperplane_labels(self, phi1_322, phi2_322):
        assert not slocc.equivalent(phi1_322, phi2_322)

    def test_non_maximal_hyperplane_state_is_undecidable(self, phi1_322):
        s = core.make_state([3, 2, 2], [1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0])
        message = ("equivalence undecidable outside bipartite and maximal hyperplane "
                   "cases (state does not have full local ranks)")
        with pytest.raises(UndecidableError) as info:
            slocc.equivalent(s, phi1_322)
        assert str(info.value) == message

    def test_rejects_different_profiles(self):
        a = construct.canonical_maximal((5, 3, 2), 1)
        b = construct.canonical_maximal((11, 4, 3), 1)
        with pytest.raises(PreconditionError, match="dims differ"):
            slocc.equivalent(a, b)


class TestIncomparabilityWitness:
    def test_case1_pair(self):
        a, b = construct.case1_pair(2)
        witness = slocc.incomparability_witness(a, b)
        assert witness == ((0, 2), (0, 1))
        assert core.schmidt_rank(a, witness[0])[0] == 4
        assert core.schmidt_rank(b, witness[0])[0] == 1
        assert core.schmidt_rank(a, witness[1])[0] == 1
        assert core.schmidt_rank(b, witness[1])[0] == 4

    def test_identical_states(self, ghz):
        assert slocc.incomparability_witness(ghz, ghz) is None

    def test_incomplete_on_eq_states(self, phi1_322, phi2_322):
        # inequivalent states with identical bipartition rank profiles
        assert slocc.incomparability_witness(phi1_322, phi2_322) is None

    def test_profile_mismatch(self, ghz, bell):
        with pytest.raises(PreconditionError, match="dims differ"):
            slocc.incomparability_witness(ghz, bell)


class TestReachFromMes:
    def test_projector_target(self):
        target = core.make_state([4, 2, 2], [1] + [0] * 15)
        tup = slocc.reach_from_mes((4, 2, 2), target)
        out = core.apply_local(construct.mes_state((4, 2, 2)), tup)
        assert np.array_equal(out.amplitudes, target.amplitudes)
        assert np.array_equal(tup.ops[0][:, 1:], np.zeros((4, 3)))

    def test_ghz_like_target(self):
        amps = np.zeros(16)
        amps[0] = 1  # |0>|00>
        amps[1 * 4 + 3] = 1  # |1>|11>
        target = core.make_state([4, 2, 2], amps)
        tup = slocc.reach_from_mes((4, 2, 2), target)
        out = core.apply_local(construct.mes_state((4, 2, 2)), tup)
        assert np.array_equal(out.amplitudes, target.amplitudes)

    def test_bipartite_diagonal(self):
        target = core.make_state([2, 2], [1, 0, 0, 2])
        tup = slocc.reach_from_mes((2, 2), target)
        assert np.allclose(tup.ops[0], np.diag([1, 2]))

    def test_rejects_missing_mes(self, phi2_322):
        with pytest.raises(PreconditionError, match="no maximum entangled state"):
            slocc.reach_from_mes((3, 2, 2), phi2_322)

    def test_unsorted_dims_are_not_a_missing_mes(self):
        # (2, 4) admits an MES, listed largest first as (4, 2)
        assert spaces.mes_exists((2, 4))
        target = core.make_state([2, 4], [1] + [0] * 7)
        with pytest.raises(PreconditionError, match="sorted non-increasing"):
            slocc.reach_from_mes((2, 4), target)

    def test_profile_mismatch(self, ghz):
        with pytest.raises(PreconditionError, match=r"dims differ: \(4, 2, 2\) vs \(2, 2, 2\)"):
            slocc.reach_from_mes((4, 2, 2), ghz)


class TestHyperplaneEquivalenceTuple:
    def test_canonical_to_representative(self, phi1_322, phi2_322):
        for r, rep in ((1, phi1_322), (2, phi2_322)):
            canon = construct.canonical_maximal((3, 2, 2), r)
            tup = slocc.hyperplane_equivalence_tuple(rep, canon)
            mapped = core.apply_local(canon, tup)
            assert np.allclose(mapped.amplitudes, rep.amplitudes, atol=1e-10)
            for op in tup.ops:
                assert np.linalg.matrix_rank(op) == op.shape[0]

    def test_rejects_different_labels(self, phi1_322, phi2_322):
        with pytest.raises(PreconditionError, match="class labels differ"):
            slocc.hyperplane_equivalence_tuple(phi1_322, phi2_322)


class TestFiniteClassCatalog:
    def test_432(self):
        entry = spaces.finite_class_catalog((4, 3, 2))
        assert entry.finite and entry.max_class_count == 5

    def test_322(self):
        entry = spaces.finite_class_catalog((3, 2, 2))
        assert entry.finite
        assert entry.max_class_count == 2
        assert entry.total_class_count == 8

    def test_7222(self):
        assert spaces.finite_class_catalog((7, 2, 2, 2)).finite

    def test_222_unknown(self):
        entry = spaces.finite_class_catalog((2, 2, 2))
        assert not entry.finite

    def test_hyperplane_count(self):
        entry = spaces.finite_class_catalog((5, 3, 2))
        assert entry.finite and entry.max_class_count == 2

    def test_corollary_families(self):
        # 2n-2, 2n-3, 3n-2 over n x 2 systems for n = 4
        for dims in ((6, 4, 2), (5, 4, 2), (10, 4, 2)):
            assert spaces.finite_class_catalog(dims).finite

    def test_trivial_party(self):
        with pytest.raises(PreconditionError, match="dimensions must all be >= 2"):
            spaces.finite_class_catalog((2, 2, 1))

    # one profile per clause that can answer, with everything the entry says
    @pytest.mark.parametrize("dims, finite, max_count, total_count, source", [
        ((4, 3, 2), True, 5, None, "enumerated 4x3x2 maximal classes"),
        ((3, 2, 2), True, 2, 8, "3x2x2 enumeration"),
        ((4, 2, 2), True, 1, None, "maximum entangled state"),
        ((10, 4, 2), True, 1, None, "maximum entangled state"),
        ((5, 3, 2), True, 2, None, "hyperplane class count"),
        ((7, 2, 2, 2), True, None, None, "hyperplane correspondence"),
        ((6, 4, 2), True, None, None, "finite-family (6,4,2)"),
        ((5, 4, 2), True, None, None, "finite-family (5,4,2)"),
        ((2, 2, 2), False, None, None, None),
    ])
    def test_provenance(self, dims, finite, max_count, total_count, source):
        entry = spaces.finite_class_catalog(dims)
        assert (entry.finite, entry.max_class_count, entry.total_class_count, entry.source) == (
            finite, max_count, total_count, source)
