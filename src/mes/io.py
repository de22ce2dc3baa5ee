"""JSON (de)serialization for states, operator tuples, and decompositions.

State file:        {"dims": [d1, ..., dn], "amps": [[re, im], ...]}
Operator tuple:    {"ops": [{"rows": r, "cols": c, "entries": [[re, im], ...]}, ...]}
Decomposition:     {"terms": [[[[re, im], ...] per party], ...]}
All entries row-major; state amplitudes use the party-0-slowest layout.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .core import LocalOperatorTuple, PureState, make_state
from .rank import ProductDecomposition


def _pairs(arr: np.ndarray) -> list:
    flat = np.ascontiguousarray(arr, dtype=complex).reshape(-1)
    return flat.view(float).reshape(-1, 2).tolist()


def _complex(pairs) -> np.ndarray:
    """Complex vector from [[re, im], ...]; ValueError unless all are number pairs,
    each part a JSON number (int or float, not a bool or a string)."""
    try:
        if set(map(len, pairs)) - {2}:
            raise ValueError("complex entries must be [re, im] pairs")
        flat = list(chain.from_iterable(pairs))
        others = set(map(type, flat)) - {int, float}
        if others:
            raise TypeError("got " + ", ".join(sorted(t.__name__ for t in others)))
        flat = np.array(flat, dtype=float)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"complex entries must be [re, im] number pairs ({exc})")
    return flat.view(complex)


def _field(data: dict, key: str):
    """data[key]; ValueError naming the field when data lacks it."""
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    return data[key]


def state_to_dict(state: PureState) -> dict:
    return {"dims": list(state.dims), "amps": _pairs(state.amplitudes)}


def state_from_dict(data: dict) -> PureState:
    if not isinstance(data, dict):
        raise ValueError("a state must be a JSON object")
    dims = _field(data, "dims")
    if type(dims) is not list or any(type(d) is not int for d in dims):
        raise ValueError(f"dims must be a list of integers, got {dims!r}")
    return make_state(dims, _complex(_field(data, "amps")))


def ops_to_dict(tup: LocalOperatorTuple) -> dict:
    return {
        "ops": [
            {"rows": op.shape[0], "cols": op.shape[1], "entries": _pairs(op)}
            for op in tup.ops
        ]
    }


def _list_member(data, key: str) -> list:
    """data[key]; ValueError unless data is a JSON object and the value a list."""
    if not isinstance(data, dict):
        raise ValueError(f"a document holding {key!r} must be a JSON object")
    items = _field(data, key)
    if not isinstance(items, list):
        raise ValueError(f"{key!r} must be a list, got {items!r}")
    return items


def ops_from_dict(data: dict) -> LocalOperatorTuple:
    ops = []
    for i, entry in enumerate(_list_member(data, "ops")):
        if not isinstance(entry, dict):
            raise ValueError(f"each operator must be a JSON object, got {entry!r}")
        shape = (_field(entry, "rows"), _field(entry, "cols"))
        if any(type(n) is not int or n < 1 for n in shape):
            raise ValueError(f"rows and cols must be positive integers, got {shape}")
        entries = _complex(_field(entry, "entries"))
        if entries.size != shape[0] * shape[1]:
            raise ValueError(f"operator {i} has {entries.size} entries, "
                             f"expected rows*cols = {shape[0] * shape[1]}")
        ops.append(entries.reshape(shape))
    return LocalOperatorTuple(tuple(ops))


def decomposition_to_dict(decomposition: ProductDecomposition) -> dict:
    return {
        "terms": [[_pairs(v) for v in term] for term in decomposition.terms]
    }


def decomposition_from_dict(data: dict) -> ProductDecomposition:
    terms = _list_member(data, "terms")
    if any(not isinstance(term, list) for term in terms):
        raise ValueError("each term must be a list of vectors, one per party")
    return ProductDecomposition(tuple(tuple(_complex(v) for v in term) for term in terms))


def load_state(path: str) -> PureState:
    with open(path) as fh:
        return state_from_dict(json.load(fh))


def save_state(state: PureState, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_dict(state), fh)


def load_ops(path: str) -> LocalOperatorTuple:
    with open(path) as fh:
        return ops_from_dict(json.load(fh))


def load_decomposition(path: str) -> ProductDecomposition:
    with open(path) as fh:
        return decomposition_from_dict(json.load(fh))
