"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import itertools
import math

import numpy as np
import pytest

from _helpers import group_parties, random_invertible_tuple, random_singular_tuple, random_state
from mes import construct, core, rank, slocc, spaces


def report(num, name, ok):
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def sorted_profiles(n_values, d_values):
    for n in n_values:
        for dims in itertools.product(d_values, repeat=n):
            if all(dims[i] >= dims[i + 1] for i in range(n - 1)):
                yield dims


def test_criterion_1_existence_predicate():
    ok = True
    for dims in sorted_profiles((2, 3, 4), (2, 3, 4)):
        expected = dims[0] >= math.prod(dims[1:])
        ok = ok and spaces.mes_exists(dims) is expected
    report(1, "existence predicate", ok)


def test_criterion_2_sufficiency_witness():
    ok = True
    rng = np.random.default_rng(0)
    for dims in sorted_profiles((2, 3, 4), (2, 3, 4)):
        if not spaces.mes_exists(dims):
            continue
        mes = construct.mes_state(dims)
        for _ in range(50):
            target = random_state(dims, rng)
            tup = slocc.reach_from_mes(dims, target)
            out = core.apply_local(mes, tup)
            ok = ok and np.max(np.abs(out.amplitudes - target.amplitudes)) <= 1e-12
    report(2, "sufficiency witness", ok)


def test_criterion_3_construction_certification():
    profiles = [
        dims
        for dims in sorted_profiles((3,), range(2, 7))
        if dims[0] < dims[1] * dims[2]
    ]
    ok = len(profiles) >= 30
    for dims in profiles:
        state = construct.maximal_rank_d1(dims)
        full = core.local_ranks(state).local_ranks == dims
        lb = rank.flattening_lower_bound(state) == dims[0]
        decomp = construct.rank_d1_terms(dims)
        cert = rank.verify_decomposition(state, decomp) and len(decomp) == dims[0]
        ok = ok and full and lb and cert
    report(3, "rank-d1 construction certification", ok)


def test_criterion_4_hyperplane_classification(phi1_322, phi2_322):
    ok = slocc.classify_hyperplane(phi1_322) == 1
    ok = ok and slocc.classify_hyperplane(phi2_322) == 2
    labelled = [(phi1_322, 1), (phi2_322, 2)]
    for dims in ((3, 2, 2), (5, 3, 2)):
        for r in range(1, min(dims[1], dims[2]) + 1):
            state = construct.canonical_maximal(dims, r)
            ok = ok and slocc.classify_hyperplane(state) == r
            labelled.append((state, r))
    rng = np.random.default_rng(4)
    for state, r in labelled:
        for _ in range(100):
            tup = random_invertible_tuple(state.dims, rng)
            ok = ok and slocc.classify_hyperplane(core.apply_local(state, tup)) == r
    report(4, "hyperplane classification", ok)


def test_criterion_5_incomparability():
    ok = True
    for d in (2, 3):
        a, b = construct.case1_pair(d)
        witness = slocc.incomparability_witness(a, b)
        ok = ok and witness is not None
        s1, s2 = witness
        ok = ok and core.schmidt_rank(a, s1)[0] == d * d
        ok = ok and core.schmidt_rank(b, s1)[0] == 1
        ok = ok and core.schmidt_rank(a, s2)[0] == 1
        ok = ok and core.schmidt_rank(b, s2)[0] == d * d
    report(5, "case-1 incomparability witness", ok)


def test_criterion_6_rank_formulas():
    ok = True
    for dims, value in (((3, 2, 2), 3), ((2, 2, 2), 3), ((4, 2, 2), 4)):
        bound = spaces.space_rank_bounds(dims)
        ok = ok and bound.exact and bound.lower == bound.upper == value
    bound = spaces.space_rank_bounds((5, 3, 3))
    ok = ok and not bound.exact and bound.lower == 6
    report(6, "space rank formulas", ok)


def test_criterion_7_strassen_certificate():
    mm = construct.matmul_tensor(2)
    decomp = rank.strassen_decomposition()
    ok = rank.verify_decomposition(mm, decomp) and len(decomp) == 7
    for drop in range(7):
        reduced = decomp[:drop] + decomp[drop + 1:]
        ok = ok and not rank.verify_decomposition(mm, reduced)
    report(7, "Strassen certificate", ok)


def test_criterion_8_monotonicity():
    rng = np.random.default_rng(8)
    profiles = [
        dims
        for dims in sorted_profiles((3,), (2, 3, 4))
        if dims[0] <= 4 and dims[1] <= 3 and dims[2] <= 2
    ]
    ok = True
    for _ in range(200):
        dims = profiles[int(rng.integers(len(profiles)))]
        state = random_state(dims, rng)
        before = {
            s: core.schmidt_rank(state, s)[0]
            for s in core.canonical_bipartitions(3)
        }
        out = core.apply_local(state, random_singular_tuple(dims, rng))
        for s, r in before.items():
            ok = ok and core.schmidt_rank(out, s)[0] <= r
    report(8, "rank monotonicity under singular tuples", ok)


def test_criterion_9_refinement():
    rng = np.random.default_rng(9)
    pairings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)),
                ((0, 1), (2,), (3,)), ((0, 2), (1,), (3,)), ((0, 3), (1,), (2,)),
                ((1, 2), (0,), (3,)), ((1, 3), (0,), (2,)), ((2, 3), (0,), (1,))]
    ok = True
    produced = 0
    while produced < 50:
        state = random_state((2, 2, 2, 2), rng)
        if not slocc.is_maximal(state):
            continue
        produced += 1
        refined_maximal = slocc.is_maximal(state)
        for groups in pairings:
            grouped = group_parties(state, groups)
            if slocc.is_maximal(grouped) and not refined_maximal:
                ok = False
    report(9, "refinement preserves maximality", ok)


def test_criterion_10_catalog_fidelity():
    e432 = spaces.finite_class_catalog((4, 3, 2))
    e322 = spaces.finite_class_catalog((3, 2, 2))
    e7222 = spaces.finite_class_catalog((7, 2, 2, 2))
    e222 = spaces.finite_class_catalog((2, 2, 2))
    ok = e432.finite and e432.max_class_count == 5
    ok = ok and e322.finite and e322.max_class_count == 2 and e322.total_class_count == 8
    ok = ok and e7222.finite
    ok = ok and not e222.finite
    report(10, "catalog fidelity", ok)
