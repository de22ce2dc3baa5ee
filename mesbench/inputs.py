"""Benchmark inputs and their expected answers, built without mes.

Every state, operator and decomposition here is generated from a numpy
Generator, and every expected answer comes from a family's closed form or
from a theorem of the paper, never from the library under test. States are
written to JSON by this module's own encoder, not by ``mes.io``.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


# -- amplitude algebra -------------------------------------------------------

def gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unitary(rng, d):
    q, r = np.linalg.qr(gaussian(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conditioned_op(rng, d, kappa):
    """d x d operator whose singular values run geometrically from 1 to 1/kappa."""
    svals = kappa ** (-np.arange(d) / max(d - 1, 1))
    return (unitary(rng, d) * svals) @ unitary(rng, d)


def apply_ops(tensor, ops):
    """(L_0 x ... x L_{n-1}) applied to a tensor, by one einsum."""
    n = tensor.ndim
    letters = "abcdefghijkl"
    inner, outer = letters[:n], letters[n:2 * n].upper()
    spec = ",".join(o + i for o, i in zip(outer, inner)) + "," + inner + "->" + outer
    return np.einsum(spec, *ops, tensor, optimize="greedy")


def flattening(tensor, subset):
    sub = sorted(subset)
    rest = [i for i in range(tensor.ndim) if i not in sub]
    rows = math.prod(tensor.shape[i] for i in sub)
    return tensor.transpose(sub + rest).reshape(rows, -1)


def canonical_cuts(n):
    """Proper party subsets containing party 0, by size then lexicographic."""
    return [(0,) + extra for size in range(n - 1)
            for extra in combinations(range(1, n), size)]


def generic_rank(dims, subset):
    inside = math.prod(dims[i] for i in subset)
    return min(inside, math.prod(dims) // inside)


# -- JSON in the state file format, written without mes.io ---------------------

def pairs(amps):
    flat = np.asarray(amps, dtype=complex).reshape(-1)
    return np.column_stack([flat.real, flat.imag]).tolist()


def amps_from_pairs(data):
    arr = np.asarray(data, dtype=float).reshape(-1, 2)
    return arr[:, 0] + 1j * arr[:, 1]


def state_doc(tensor):
    return {"dims": list(tensor.shape), "amps": pairs(tensor)}


def ops_doc(ops):
    return {"ops": [{"rows": op.shape[0], "cols": op.shape[1], "entries": pairs(op)}
                    for op in ops]}


# -- state families by closed form ---------------------------------------------

def hyperplane_state(rng, dims, r):
    """Maximal state of hyperplane class r on (d2*d3 - 1, d2, d3).

    Its party-0 rows are an orthonormal basis of the orthocomplement of
    omega = sum_{j<r} |jj>, so its complement state is omega up to a phase.
    """
    d1, d2, d3 = dims
    omega = omega_vector(d2, d3, r)
    seed = gaussian(rng, d2 * d3, d2 * d3)
    seed[:, 0] = omega
    q, _ = np.linalg.qr(seed)
    return q[:, 1:].T.reshape(d1, d2, d3)


def omega_vector(d2, d3, r):
    omega = np.zeros(d2 * d3, dtype=complex)
    omega[np.arange(r) * d3 + np.arange(r)] = 1 / math.sqrt(r)
    return omega


def epr(d):
    return np.eye(d, dtype=complex)


def mes_state(dims):
    tail = math.prod(dims[1:])
    tens = np.zeros((dims[0], tail), dtype=complex)
    tens[np.arange(tail), np.arange(tail)] = 1
    return tens.reshape(dims)


def maximal_rank_d1(dims):
    """sum_{i<d3}|iii> + sum_{d3<=i<d2}|ii0> + sum_{d2<=i<d1}|i a_i c_i>."""
    d1, d2, d3 = dims
    tens = np.zeros(dims, dtype=complex)
    used = set()
    for i in range(d2):
        pair = (i, i) if i < d3 else (i, 0)
        tens[(i,) + pair] = 1
        used.add(pair)
    free = [(a, c) for a in range(d2) for c in range(d3) if (a, c) not in used]
    for i in range(d2, d1):
        tens[(i,) + free[i - d2]] = 1
    return tens


def matmul(m):
    """sum_{i,j,k} |i,j>|i,k>|k,j> over (m^2)^3."""
    tens = np.zeros((m * m,) * 3, dtype=complex)
    i, j, k = np.meshgrid(range(m), range(m), range(m), indexing="ij")
    tens[(i * m + j).ravel(), (i * m + k).ravel(), (k * m + j).ravel()] = 1
    return tens


def case1(d, which):
    """EPR pairs on parties (0,1),(2,3) (which=0) or (0,2),(1,3) (which=1)."""
    pair = np.einsum("ab,cd->abcd", epr(d), epr(d))
    return pair if which == 0 else pair.transpose(0, 2, 1, 3)


CASE1_WITNESS = [[0, 2], [0, 1]]  # case1(d, 0) wins at {0,2}, case1(d, 1) at {0,1}


def strassen_terms():
    """Strassen's seven products as (C, A, B) functionals on 2x2 entries."""
    def f(entries):
        v = np.zeros(4, dtype=complex)
        for (i, j), c in entries.items():
            v[2 * i + j] = c
        return v
    return [
        (f({(0, 0): 1, (1, 1): 1}), f({(0, 0): 1, (1, 1): 1}), f({(0, 0): 1, (1, 1): 1})),
        (f({(1, 0): 1, (1, 1): -1}), f({(1, 0): 1, (1, 1): 1}), f({(0, 0): 1})),
        (f({(0, 1): 1, (1, 1): 1}), f({(0, 0): 1}), f({(0, 1): 1, (1, 1): -1})),
        (f({(0, 0): 1, (1, 0): 1}), f({(1, 1): 1}), f({(1, 0): 1, (0, 0): -1})),
        (f({(0, 0): -1, (0, 1): 1}), f({(0, 0): 1, (0, 1): 1}), f({(1, 1): 1})),
        (f({(1, 1): 1}), f({(1, 0): 1, (0, 0): -1}), f({(0, 0): 1, (0, 1): 1})),
        (f({(0, 0): 1}), f({(0, 1): 1, (1, 1): -1}), f({(1, 0): 1, (1, 1): 1})),
    ]


def decomposition_doc(terms):
    return {"terms": [[pairs(v) for v in term] for term in terms]}


def expand(terms):
    return sum(np.einsum("a,b,c->abc", *term) for term in terms)


# -- answers from the paper's theorems, by profile -------------------------------

def mes_exists(dims):
    top = sorted(dims, reverse=True)
    return top[0] >= math.prod(top[1:])


# Theorem 2: k = d2*d3 - d1; rank d2*d3 when k <= 0, d2*d3 - ceil(k/2) when
# k <= 4 and k <= max(d2, d3), else in [d1 + floor(sqrt(2k+2)) - 2, d2*d3].
RANK_BOUNDS = {
    (4, 2, 2): {"lower": 4, "upper": 4, "exact": True},
    (3, 2, 2): {"lower": 3, "upper": 3, "exact": True},
    (5, 3, 2): {"lower": 5, "upper": 5, "exact": True},
    (7, 3, 3): {"lower": 8, "upper": 8, "exact": True},
    (4, 4, 2): {"lower": 6, "upper": 6, "exact": True},
    (5, 3, 3): {"lower": 6, "upper": 9, "exact": False},
}

# Finite-class results: (4,3,2) has 5 maximal classes, (3,2,2) 2 of 8,
# a maximum entangled state gives 1, a tripartite hyperplane profile
# min(d2, d3), the 4-party hyperplane correspondence is finite, and nothing
# is known for (5,5,5).
CATALOG = {
    (4, 3, 2): {"finite": "yes", "max_class_count": 5, "total_class_count": None},
    (3, 2, 2): {"finite": "yes", "max_class_count": 2, "total_class_count": 8},
    (4, 2, 2): {"finite": "yes", "max_class_count": 1, "total_class_count": None},
    (5, 3, 2): {"finite": "yes", "max_class_count": 2, "total_class_count": None},
    (7, 2, 2, 2): {"finite": "yes", "max_class_count": None, "total_class_count": None},
    (5, 5, 5): {"finite": "unknown", "max_class_count": None, "total_class_count": None},
}


def dims_arg(dims):
    return ",".join(map(str, dims))
