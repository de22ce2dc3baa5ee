"""The three workloads: inputs, the timed op, and the untimed judgement.

Each workload is driven closed-loop by one client. ``prepare(i)`` builds the
inputs of op i from the seed (untimed), ``run`` is the op (timed), and
``judge`` checks its answer against closed forms (untimed) and returns
(main outcome, probe outcome, comparable answer). A run measures whole
cycles of ``cycle`` ops, so every input kind is weighted the same in every
run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import inputs as X
from checks import OK, UNDECIDABLE, WRONG, Reproduces, UpToPhase, check

HERE = os.path.dirname(os.path.abspath(__file__))


def _ranks_spec(dims):
    return {"local": [int(d) for d in dims],
            "bip": {",".join(map(str, cut)): X.generic_rank(dims, cut)
                    for cut in X.canonical_cuts(len(dims))}}


def _ranks_answer(profile):
    return {"local": list(profile.local_ranks),
            "bip": {",".join(map(str, cut)): r for cut, r in profile.bipartition_ranks.items()}}


# -- bulk-large ------------------------------------------------------------------

class BulkLarge:
    """Decode one (30,30,30) state, rank-test it, transform it and encode it."""

    cycle = 1
    in_process = True
    gc_each_op = True  # each large op starts from the same heap state
    dims = (30, 30, 30)
    # Amplitudes are drawn afresh for every op from a pool of Gaussian values
    # formatted once at set-up, so that building an input costs a join rather
    # than a json.dumps of 27000 pairs, and most of a run is timed ops.
    pool_size = 1 << 14

    def __init__(self, seed, workdir):
        import mes.core  # noqa: F401  (setup imports the library before timing)
        import mes.io  # noqa: F401
        import mes.rank  # noqa: F401
        import mes.slocc  # noqa: F401

        self.seed = seed
        self.pool = X.gaussian(np.random.default_rng([seed, 1 << 31]), self.pool_size)
        self.pool_text = [f"[{re!r}, {im!r}]" for re, im in X.pairs(self.pool)]

    def warm_up(self):
        inp = self.make(np.random.default_rng([self.seed, 1 << 30]), (4, 4, 4))
        self.judge(inp, self.run(inp))

    def prepare(self, i):
        return self.make(np.random.default_rng([self.seed, i]), self.dims)

    def make(self, rng, dims):
        """One op's input: the JSON text of a state drawn from the pool, and its answers."""
        from mes.core import LocalOperatorTuple

        idx = rng.integers(self.pool_size, size=int(np.prod(dims)))
        amps = self.pool[idx].reshape(dims)
        text = f'{{"dims": {json.dumps(list(dims))}, "amps": [' + ", ".join(
            [self.pool_text[k] for k in idx.tolist()]) + "]}"
        ops = [X.conditioned_op(rng, d, 10.0) for d in dims]
        spec = {"maximal": True, "ranks": _ranks_spec(dims),
                "lower_bound": max(X.generic_rank(dims, c) for c in X.canonical_cuts(3)),
                "out": {"dims": list(dims), "amps": X.apply_ops(amps, ops).reshape(-1)}}
        return {"text": text, "ops": LocalOperatorTuple(tuple(ops)), "spec": spec}

    @staticmethod
    def run(inp, traced=False):
        from mes import core, io, rank, slocc

        state = io.state_from_dict(json.loads(inp["text"]))
        maximal = slocc.is_maximal(state)
        profile = core.local_ranks(state)
        lower = rank.flattening_lower_bound(state)
        out = json.dumps(io.state_to_dict(core.apply_local(state, inp["ops"])))
        return maximal, profile, lower, out

    @staticmethod
    def judge(inp, raw):
        maximal, profile, lower, out = raw
        doc = json.loads(out)
        answer = {"maximal": maximal, "ranks": _ranks_answer(profile), "lower_bound": lower,
                  "out": {"dims": doc["dims"], "amps": X.amps_from_pairs(doc["amps"])}}
        return (OK if check(inp["spec"], answer) else WRONG), None, (answer["ranks"], maximal, lower, out)

    def close(self):
        pass


# -- slocc-sweep -----------------------------------------------------------------

HYPERPLANE = (11, 4, 3)
SWEEP_KAPPAS = [10 ** (0.4 * j) for j in range(1, 11)]  # 2.5 .. 1e4


class SloccSweep:
    """The same fixed set of SLOCC and rank questions per op, plus one conditioning probe.

    The probe cycles through canonical (11,4,3) states of classes 1..3 under
    local operators of condition number kappa up to 1e4 (ROADMAP item 2).
    Wrong and undecidable probe answers are counted apart from the op's own
    outcome: they measure the known defect and do not fail the op.
    """

    cycle = 3 * len(SWEEP_KAPPAS)
    in_process = True
    gc_each_op = False
    pool = 8

    def __init__(self, seed, workdir):
        from mes.core import LocalOperatorTuple, make_state

        rng = np.random.default_rng(seed)
        d1, d2, d3 = HYPERPLANE
        self.hyper = []
        for _ in range(self.pool):
            r = int(rng.integers(1, 4))
            base = X.hyperplane_state(rng, HYPERPLANE, r)
            ops = [X.conditioned_op(rng, d, 10.0) for d in HYPERPLANE]
            inv = np.kron(*[np.linalg.inv(op.conj().T) for op in ops[1:]])
            comp = inv @ X.omega_vector(d2, d3, r)
            spec = {"amps": X.apply_ops(base, ops).reshape(-1), "maximal": True, "class": r,
                    "complement": {"k": 1, "pivot": 0, "label": r, "dims": [1, d2, d3],
                                   "amps": UpToPhase(comp / np.linalg.norm(comp))}}
            self.hyper.append((make_state(HYPERPLANE, base), LocalOperatorTuple(tuple(ops)), spec))
        six = (2,) * 6
        self.six = [make_state(six, X.gaussian(rng, *six)) for _ in range(self.pool)]
        self.fixed_spec = {
            "ranks": _ranks_spec(six),
            "case1": [X.case1(2, 0).reshape(-1), X.case1(2, 1).reshape(-1)],
            "witness": X.CASE1_WITNESS,
            "matmul": X.matmul(3).reshape(-1),
            "matmul_lower_bound": 9,
        }
        self.catalog = list(X.CATALOG)
        self.bounds = list(X.RANK_BOUNDS)
        self.probes = []
        for r in (1, 2, 3):
            for kappa in SWEEP_KAPPAS:
                ops = [X.conditioned_op(rng, d, kappa) for d in HYPERPLANE]
                tens = X.apply_ops(X.hyperplane_state(rng, HYPERPLANE, r), ops)
                self.probes.append((make_state(HYPERPLANE, tens), [True, r]))

    def warm_up(self):
        for i in range(self.cycle):
            inp = self.prepare(i)
            self.judge(inp, self.run(inp))

    def prepare(self, i):
        return {"hyper": self.hyper[i % self.pool], "six": self.six[i % self.pool],
                "catalog": self.catalog[i % len(self.catalog)],
                "bounds": self.bounds[i % len(self.bounds)],
                "probe": self.probes[i % len(self.probes)]}

    @staticmethod
    def run(inp, traced=False):
        from mes import construct, core, rank, slocc
        from mes.errors import PreconditionError, UndecidableError

        base, ops, _ = inp["hyper"]
        h = core.apply_local(base, ops)
        a, b = construct.case1_pair(2)
        mm = construct.matmul_tensor(3)
        raw = {
            "h": h, "maximal": slocc.is_maximal(h), "class": slocc.classify_hyperplane(h),
            "complement": slocc.complement_map(h, 0),
            "ranks": core.local_ranks(inp["six"]),
            "case1": (a, b), "witness": slocc.incomparability_witness(a, b),
            "matmul": mm, "matmul_lower_bound": rank.flattening_lower_bound(mm),
            "catalog": slocc.finite_class_catalog(inp["catalog"]),
            "bounds": rank.space_rank_bounds(inp["bounds"]),
        }
        state = inp["probe"][0]
        try:
            raw["probe"] = [slocc.is_maximal(state), slocc.classify_hyperplane(state)]
        except UndecidableError:
            raw["probe"] = UNDECIDABLE
        except PreconditionError as exc:
            raw["probe"] = type(exc).__name__
        return raw

    def judge(self, inp, raw):
        _, _, hyper_spec = inp["hyper"]
        comp, cat, bound = raw["complement"], raw["catalog"], raw["bounds"]
        hyper = {"amps": raw["h"].amplitudes, "maximal": raw["maximal"], "class": raw["class"],
                 "complement": {"k": comp.k, "pivot": comp.pivot, "label": comp.label,
                                "dims": list(comp.complement_state.dims),
                                "amps": comp.complement_state.amplitudes}}
        fixed = {"ranks": _ranks_answer(raw["ranks"]),
                 "case1": [s.amplitudes for s in raw["case1"]],
                 "witness": [list(c) for c in raw["witness"]],
                 "matmul": raw["matmul"].amplitudes,
                 "matmul_lower_bound": raw["matmul_lower_bound"]}
        tables = {"catalog": {"finite": "yes" if cat.finite else "unknown",
                              "max_class_count": cat.max_class_count,
                              "total_class_count": cat.total_class_count},
                  "bounds": {"lower": bound.lower, "upper": bound.upper, "exact": bound.exact}}
        spec_tables = {"catalog": X.CATALOG[inp["catalog"]], "bounds": X.RANK_BOUNDS[inp["bounds"]]}
        main_ok = (check(hyper_spec, hyper) and check(self.fixed_spec, fixed)
                   and check(spec_tables, tables))
        probe = raw["probe"]
        if probe == UNDECIDABLE:
            probe_outcome = UNDECIDABLE
        else:
            probe_outcome = OK if check(inp["probe"][1], probe) else WRONG
        comparable = (hyper["amps"].tobytes(), hyper["complement"]["amps"].tobytes(),
                      json.dumps([hyper["maximal"], hyper["class"], fixed["ranks"], fixed["witness"],
                                  fixed["matmul_lower_bound"], tables, probe]))
        return (OK if main_ok else WRONG), probe_outcome, comparable

    def close(self):
        pass


# -- cli-mixed -------------------------------------------------------------------

@dataclass
class CliInput:
    argv: list
    spec: object


CLI_COMMANDS = ("check-mes", "maximal", "complement", "classify", "equiv", "witness",
                "reach", "catalog", "construct", "local-ranks", "schmidt", "rank-bounds",
                "rank-lb", "verify-decomp", "apply")


class CliMixed:
    """One ``python -m mes.cli <command> --json`` process per op, over all 15 commands."""

    cycle = len(CLI_COMMANDS)
    in_process = False  # each op is a child process, traced by cli_child.py
    gc_each_op = False
    variants = 3

    def __init__(self, seed, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        rng = np.random.default_rng(seed)
        self.inputs = {cmd: [getattr(self, "_" + cmd.replace("-", "_"))(rng, v)
                             for v in range(self.variants)] for cmd in CLI_COMMANDS}

    def _file(self, name, doc):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def _state(self, name, tensor):
        return self._file(name, X.state_doc(tensor))

    def _check_mes(self, rng, v):
        dims = [(3, 2, 2), (4, 2, 2), (6, 3, 2), (9, 3, 3), (5, 3, 2)][int(rng.integers(5))]
        return CliInput(["check-mes", "--dims", X.dims_arg(dims)], X.mes_exists(dims))

    def _maximal(self, rng, v):
        tens = X.gaussian(rng, 4, 3, 2)
        if v == 1:  # project party 1 onto a plane: its local rank drops to 2
            u = X.unitary(rng, 3)[:, :1]
            tens = X.apply_ops(tens, [np.eye(4), np.eye(3) - u @ u.conj().T, np.eye(2)])
        return CliInput(["maximal", self._state(f"maximal{v}.json", tens)], v != 1)

    def _hyper(self, rng, name, r, transform=True):
        dims = (5, 3, 2)
        tens = X.hyperplane_state(rng, dims, r)
        if transform:
            tens = X.apply_ops(tens, [X.conditioned_op(rng, d, 10.0) for d in dims])
        return self._state(name, tens)

    def _complement(self, rng, v):
        r = 1 + v % 2
        path = self._hyper(rng, f"complement{v}.json", r, transform=False)
        spec = {"complement": {"dims": [1, 3, 2], "amps": UpToPhase(X.omega_vector(3, 2, r))},
                "pivot": 0, "k": 1, "label": r}
        return CliInput(["complement", path, "--pivot", "0"], spec)

    def _classify(self, rng, v):
        r = 1 + v % 2
        return CliInput(["classify", self._hyper(rng, f"classify{v}.json", r)], r)

    def _equiv(self, rng, v):
        r1, r2 = [(1, 1), (1, 2), (2, 2)][v]
        return CliInput(["equiv", self._hyper(rng, f"equiv{v}a.json", r1),
                         self._hyper(rng, f"equiv{v}b.json", r2)], r1 == r2)

    def _witness(self, rng, v):
        first, second = (0, 1) if v % 2 == 0 else (1, 0)
        spec = X.CASE1_WITNESS if first == 0 else X.CASE1_WITNESS[::-1]
        return CliInput(["witness", self._state(f"witness{v}a.json", X.case1(2, first)),
                         self._state(f"witness{v}b.json", X.case1(2, second))], spec)

    def _reach(self, rng, v):
        dims = [(4, 2, 2), (6, 3, 2), (4, 2, 2)][v]
        target = X.gaussian(rng, *dims)
        ops = [X.flattening(target, [0])] + [np.eye(d) for d in dims[1:]]
        spec = Reproduces(X.mes_state(dims), target, X.ops_doc(ops))
        return CliInput(["reach", self._state(f"reach{v}.json", target),
                         "--dims", X.dims_arg(dims)], spec)

    def _catalog(self, rng, v):
        dims = list(X.CATALOG)[int(rng.integers(len(X.CATALOG)))]
        return CliInput(["catalog", "--dims", X.dims_arg(dims)], X.CATALOG[dims])

    def _construct(self, rng, v):
        family, args, tens = [
            ("epr", ["--d", "3"], X.epr(3)),
            ("maximal-rank-d1", ["--dims", "5,3,2"], X.maximal_rank_d1((5, 3, 2))),
            ("matmul", ["--m", "2"], X.matmul(2)),
            ("case1", ["--d", "2", "--which", "1"], X.case1(2, 1)),
            ("mes", ["--dims", "4,2,2"], X.mes_state((4, 2, 2))),
        ][int(rng.integers(5))]
        return CliInput(["construct", family, *args],
                        {"dims": list(tens.shape), "amps": tens.reshape(-1)})

    def _local_ranks(self, rng, v):
        dims = (3, 2, 2, 2)
        spec = _ranks_spec(dims)
        spec = {"local_ranks": spec["local"], "bipartition_ranks": spec["bip"]}
        return CliInput(["local-ranks", self._state(f"ranks{v}.json", X.gaussian(rng, *dims))], spec)

    def _schmidt(self, rng, v):
        r = int(rng.integers(1, 5))
        svals = 2.0 ** -np.arange(r)
        left, right = X.unitary(rng, 6)[:, :r], X.unitary(rng, 4)[:, :r]
        tens = ((left * svals) @ right.T).reshape(2, 3, 2, 2)
        spec = {"rank": r, "singular_values": np.concatenate([svals, np.zeros(4 - r)])}
        return CliInput(["schmidt", self._state(f"schmidt{v}.json", tens), "--subset", "0,1"], spec)

    def _rank_bounds(self, rng, v):
        dims = list(X.RANK_BOUNDS)[int(rng.integers(len(X.RANK_BOUNDS)))]
        return CliInput(["rank-bounds", "--dims", X.dims_arg(dims)], X.RANK_BOUNDS[dims])

    def _rank_lb(self, rng, v):
        if v == 0:
            return CliInput(["rank-lb", self._state("ranklb0.json", X.matmul(2))], 4)
        dims = (4, 3, 2)
        lower = max(X.generic_rank(dims, c) for c in X.canonical_cuts(3))
        return CliInput(["rank-lb", self._state(f"ranklb{v}.json", X.gaussian(rng, *dims))], lower)

    def _verify_decomp(self, rng, v):
        terms = X.strassen_terms()
        if not np.array_equal(X.expand(terms), X.matmul(2)):
            raise RuntimeError("the benchmark's Strassen terms do not expand to matmul(2)")
        if v == 1:  # flip the sign of one factor: no longer a decomposition
            terms[0] = (terms[0][0], -terms[0][1], terms[0][2])
        return CliInput(["verify-decomp", self._state(f"mm{v}.json", X.matmul(2)),
                         self._file(f"strassen{v}.json", X.decomposition_doc(terms))],
                        {"verified": v != 1, "terms": 7})

    def _apply(self, rng, v):
        dims, out = (3, 2, 2), (4, 2, 3)
        tens = X.gaussian(rng, *dims)
        ops = [X.gaussian(rng, o, d) for o, d in zip(out, dims)]
        spec = {"dims": list(out), "amps": X.apply_ops(tens, ops).reshape(-1)}
        return CliInput(["apply", self._state(f"apply{v}.json", tens),
                         self._file(f"ops{v}.json", X.ops_doc(ops))], spec)

    def warm_up(self):
        inp = self.prepare(0)
        self.judge(inp, self.run(inp))

    def prepare(self, i):
        return self.inputs[CLI_COMMANDS[i % self.cycle]][(i // self.cycle) % self.variants]

    @staticmethod
    def run(inp, traced=False):
        entry = [os.path.join(HERE, "cli_child.py")] if traced else ["-m", "mes.cli"]
        proc = subprocess.run([sys.executable, *entry, *inp.argv, "--json"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def judge(inp, raw):
        code, out, _ = raw
        if code == 3:
            return UNDECIDABLE, None, (code, out)
        if code != 0:
            return WRONG, None, (code, out)
        try:
            result = json.loads(out)["result"]
        except (ValueError, KeyError, TypeError):
            return WRONG, None, (code, out)
        return (OK if check(inp.spec, result) else WRONG), None, (code, out)

    def close(self):
        for name in os.listdir(self.workdir):
            os.remove(os.path.join(self.workdir, name))
        os.rmdir(self.workdir)


WORKLOADS = {"cli-mixed": CliMixed, "bulk-large": BulkLarge, "slocc-sweep": SloccSweep}
