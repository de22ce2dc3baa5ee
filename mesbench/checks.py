"""Answer checking and its self-test.

An expected answer is a tree of dicts, lists, scalars and arrays, in which a
few nodes (``UpToPhase``, ``Reproduces``) check a property instead of a
value. ``check`` compares a normalized answer with it; ``example`` gives one
correct answer, which ``self_test`` corrupts one leaf at a time to show that
every corrupted answer is caught and counted.
"""

from __future__ import annotations

import numpy as np

from inputs import amps_from_pairs, apply_ops

RTOL = 1e-9
OK, WRONG, UNDECIDABLE = "ok", "wrong", "undecidable"


def _as_array(got, like):
    arr = np.asarray(got)
    if np.iscomplexobj(like) and not np.iscomplexobj(arr):
        arr = amps_from_pairs(arr)
    return arr.reshape(like.shape)


def _close(ref, got):
    return np.max(np.abs(got - ref), initial=0.0) <= RTOL * max(1.0, np.max(np.abs(ref), initial=0.0))


class UpToPhase:
    """A unit vector that is right up to a global phase."""

    def __init__(self, vec):
        self.vec = np.asarray(vec, dtype=complex)

    def check(self, got):
        got = _as_array(got, self.vec)
        return (abs(np.linalg.norm(got) - 1) <= RTOL
                and abs(abs(np.vdot(self.vec, got)) - 1) <= RTOL)

    def example(self):
        return self.vec


class Reproduces:
    """An operator-tuple document that maps ``source`` onto ``target``."""

    def __init__(self, source, target, example):
        self.source, self.target, self._example = source, target, example

    def check(self, got):
        ops = [_as_array(op["entries"], np.zeros((op["rows"], op["cols"]), complex))
               for op in got["ops"]]
        if len(ops) != self.source.ndim:
            return False
        return _close(self.target, apply_ops(self.source, ops))

    def example(self):
        return self._example


def check(spec, got) -> bool:
    """True iff the answer matches the expected tree; a malformed answer is False."""
    try:
        return _check(spec, got)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError):
        return False


def _check(spec, got):
    if isinstance(spec, (UpToPhase, Reproduces)):
        return spec.check(got)
    if isinstance(spec, dict):
        return isinstance(got, dict) and all(_check(v, got[k]) for k, v in spec.items())
    if isinstance(spec, (list, tuple)):
        return (isinstance(got, (list, tuple)) and len(got) == len(spec)
                and all(_check(s, g) for s, g in zip(spec, got)))
    if isinstance(spec, np.ndarray):
        return _close(spec, _as_array(got, spec))
    if isinstance(spec, bool):
        return isinstance(got, (bool, np.bool_)) and got == spec
    if spec is None or isinstance(spec, str):
        return type(got) is type(spec) and got == spec
    if isinstance(spec, int):
        return isinstance(got, (int, np.integer)) and not isinstance(got, bool) and got == spec
    if isinstance(spec, float):
        return isinstance(got, float) and abs(got - spec) <= RTOL * max(1.0, abs(spec))
    raise TypeError(f"no check for {type(spec).__name__}")


def example(spec):
    if isinstance(spec, (UpToPhase, Reproduces)):
        return example(spec.example())
    if isinstance(spec, dict):
        return {k: example(v) for k, v in spec.items()}
    if isinstance(spec, (list, tuple)):
        return type(spec)(example(v) for v in spec)
    return spec


def _leaves(tree, path=()):
    if isinstance(tree, dict):
        for k, v in tree.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(tree, (list, tuple)):
        for i, v in enumerate(tree):
            yield from _leaves(v, path + (i,))
    else:
        yield path


def _bad(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 1e-3 * (1 + abs(value))
    if isinstance(value, str):
        return value + "?"
    if value is None:
        return 0
    bad = np.array(value, copy=True)
    bad.flat[0] += 1e-3 * (1 + np.max(np.abs(bad)))
    return bad


def corrupted(tree):
    """Every copy of the tree with exactly one leaf made wrong."""
    def replace(node, path):
        if not path:
            return _bad(node)
        head, rest = path[0], path[1:]
        if isinstance(node, dict):
            return {k: replace(v, rest) if k == head else v for k, v in node.items()}
        return type(node)(replace(v, rest) if i == head else v for i, v in enumerate(node))
    for path in _leaves(tree):
        yield path, replace(tree, path)


class Tally:
    """Ops attempted, failed (a wrong answer) and undecidable (an honest no-answer).

    An op's conditioning probe, where it has one, is a known-defect slice
    (ROADMAP item 2): its wrong and undecidable answers are counted apart
    and do not fail the op. Any failed op makes the run incorrect.
    """

    def __init__(self):
        self.attempted = self.failed = self.undecidable = 0
        self.probes = self.probe_wrong = self.probe_undecidable = 0

    def add(self, main, probe=None):
        """Count one op: its main outcome and, if it has one, its probe's."""
        self.attempted += 1
        self.failed += main == WRONG
        self.undecidable += main == UNDECIDABLE
        if probe is not None:
            self.probes += 1
            self.probe_wrong += probe == WRONG
            self.probe_undecidable += probe == UNDECIDABLE


def self_test(cases):
    """Check that each (name, spec, judge) accepts its example and fails every corruption.

    ``judge(answer)`` gives the outcome of an answer. Returns the problems
    found (none means every corrupted answer was counted as failed) and the
    number of corrupted answers tried.
    """
    problems, tried = [], 0
    for name, spec, judge in cases:
        tally = Tally()
        tally.add(judge(example(spec)))
        if tally.failed:
            problems.append(f"{name}: correct answer rejected")
        for path, bad in corrupted(example(spec)):
            tried += 1
            before = tally.failed
            tally.add(judge(bad))
            if tally.failed != before + 1:
                problems.append(f"{name}: corrupted leaf {path} not counted")
    probe = Tally()
    probe.add(OK, WRONG)
    probe.add(OK, UNDECIDABLE)
    probe.add(WRONG, OK)
    counts = (probe.failed, probe.undecidable, probe.probe_wrong, probe.probe_undecidable)
    if counts != (1, 0, 1, 1):
        problems.append("tally miscounts probe and undecidable outcomes")
    return problems, tried
