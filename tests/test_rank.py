import numpy as np
import pytest

from mes import construct, core, rank, spaces
from mes.errors import PreconditionError
from mes.rank import ProductDecomposition
from mes.spaces import RankBound


def test_rank_bound_invariants():
    with pytest.raises(ValueError):
        RankBound(3, 2, False, ())
    with pytest.raises(ValueError):
        RankBound(2, 3, True, ())


def test_flattening_lower_bound_phi2(phi2_322):
    assert rank.flattening_lower_bound(phi2_322) == 3


def test_flattening_lower_bound_matmul():
    assert rank.flattening_lower_bound(construct.matmul_tensor(2)) == 4


def test_flattening_lower_bound_product_state():
    s = core.make_state([2, 2, 2], [1, 0, 0, 0, 0, 0, 0, 0])
    assert rank.flattening_lower_bound(s) == 1


@pytest.mark.parametrize(
    "dims,value",
    [((3, 2, 2), 3), ((2, 2, 2), 3), ((4, 2, 2), 4)],
)
def test_space_rank_bounds_exact(dims, value):
    bound = spaces.space_rank_bounds(dims)
    assert bound.exact
    assert bound.lower == bound.upper == value


def test_space_rank_bounds_533_interval():
    bound = spaces.space_rank_bounds((5, 3, 3))
    assert not bound.exact
    assert bound.lower == 6
    assert bound.upper == 9


def test_space_rank_bounds_mes_profile():
    bound = spaces.space_rank_bounds((9, 2, 2))
    assert bound.exact and bound.lower == 4


def test_space_rank_bounds_validation():
    with pytest.raises(PreconditionError, match="three parties required, got 2"):
        spaces.space_rank_bounds((2, 2))
    with pytest.raises(PreconditionError, match="sorted non-increasing"):
        spaces.space_rank_bounds((2, 2, 3))


def test_verify_ghz_decomposition(ghz):
    e0 = [1, 0]
    e1 = [0, 1]
    decomp = ProductDecomposition(((e0, e0, e0), (e1, e1, e1)))
    assert rank.verify_decomposition(ghz, decomp)


def test_verify_phi2_rank3_certificate(phi2_322):
    # expand-and-compare oracle for the 3-term certificate
    t1 = ([1, -1, 0], [1, 0], [1, 0])
    t2 = ([0, -1, 1], [0, 1], [0, 1])
    t3 = ([0, 1, 0], [1, 1], [1, 1])
    decomp = ProductDecomposition((t1, t2, t3))
    expanded = rank.expand_decomposition((3, 2, 2), decomp)
    assert np.allclose(expanded, phi2_322.amplitudes)
    assert rank.verify_decomposition(phi2_322, decomp)
    bound = rank.certificate_bound(phi2_322, decomp)
    assert bound.exact and bound.lower == 3
    assert "certificate" in bound.provenance


def test_strassen_certificate():
    mm = construct.matmul_tensor(2)
    decomp = rank.strassen_decomposition()
    assert len(decomp) == 7
    assert rank.verify_decomposition(mm, decomp)


@pytest.mark.parametrize("drop", range(7))
def test_strassen_any_deleted_term_fails(drop):
    mm = construct.matmul_tensor(2)
    terms = rank.strassen_decomposition().terms
    reduced = ProductDecomposition(terms[:drop] + terms[drop + 1:])
    assert not rank.verify_decomposition(mm, reduced)
    assert rank.certificate_bound(mm, reduced) is None


def test_verify_rejects_wrong_state(ghz):
    e0 = [1, 0]
    decomp = ProductDecomposition(((e0, e0, e0),))
    assert not rank.verify_decomposition(ghz, decomp)


def test_verify_shape_mismatch(ghz):
    with pytest.raises(PreconditionError, match="factor 0 has length 3"):
        rank.verify_decomposition(
            ghz, ProductDecomposition((([1, 0, 0], [1, 0], [1, 0]),))
        )


def test_verify_scale_awareness(ghz):
    # scaling one factor by c and another of the same term by 1/c is neutral
    c = 7.3 - 0.2j
    decomp = ProductDecomposition(
        ((np.array([c, 0]), np.array([1 / c, 0]), [1, 0]), ([0, 1], [0, 1], [0, 1]))
    )
    assert rank.verify_decomposition(ghz, decomp)
