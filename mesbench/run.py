"""Benchmark of mes: three closed-loop workloads, checked answers, per-layer traces.

Usage, from the root of a mes checkout:

    python3 mesbench/run.py --workload {cli-mixed,bulk-large,slocc-sweep}
                            --seed N --seconds S --trace {0,1}

Workloads (one client each, closed loop):

- cli-mixed: one ``python -m mes.cli <command> --json`` process per op,
  rotating over all 15 commands on small inputs; interpreter start and
  imports dominate.
- bulk-large: in process; each op decodes a fresh (30,30,30) state from
  JSON, tests maximality, computes local ranks and the flattening bound,
  applies an invertible operator tuple and encodes the result.
- slocc-sweep: in process, no JSON; each op asks the same fixed questions
  (hyperplane classification and complement map, 6-party local ranks,
  case-1 witness, matmul(3) flattening bound, catalog and rank bounds) plus
  one conditioning probe with kappa up to 1e4, whose wrong answers (a known
  defect, ROADMAP item 2) are counted apart and do not fail the op.

Every answer is checked, untimed, against closed forms computed here. A run
measures whole cycles of ops for at least S seconds. With --trace 0 it
prints the end-to-end metrics (op latency median and p90, ops per second of
op time, peak RSS, set-up time as the median of several fresh processes);
with --trace 1 every input runs once untraced and once traced, and it prints
per-layer metrics per op. BLAS runs single-threaded. The last line of
standard output is one JSON object {correct, attempted, failed, metrics}.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from envinfo import BLAS_ENV  # noqa: E402

# Fresh processes whose set-up time is timed, half before and half after the
# measuring one, so that their median spans the run rather than one moment.
SETUP_RUNS = 9
PERCENTILES = (90, 75, 50)  # op_p90_ms: the highest with ten samples beyond it
TIMEOUT_S = 170


def percentile(sorted_values, p):
    """Nearest-rank percentile and the number of samples above it."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1], len(sorted_values) - k


def tail_percentile(values):
    ordered = sorted(values)
    for p in PERCENTILES:
        value, beyond = percentile(ordered, p)
        if beyond >= 10:
            return p, value, beyond
    return (50,) + percentile(ordered, 50)


def spawn_worker(args, workdir, setup_only):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace), workdir]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    return proc, t_spawn


def read_json_line(proc, key):
    for line in proc.stdout:
        if line.startswith("{"):
            doc = json.loads(line)
            if key in doc:
                return doc[key]
    raise RuntimeError(f"worker ended without {key!r} (exit {proc.wait()})")


def end_to_end(result, setups):
    lat_ms = [t * 1e3 for t in result["lat"]]
    p, tail, beyond = tail_percentile(lat_ms)
    metrics = {
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (tail, "ms"),
        "ops_per_s": (len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = [f"op_p90_ms is p{p} of {len(lat_ms)} ops, {beyond} beyond it",
             "setup_s samples: " + " ".join(f"{s:.4f}" for s in setups)]
    return metrics, notes, True


def per_layer(result):
    lay, ms = result["layers"], 1e3
    s = lay["self"]
    calls = lay["core.schmidt_rank_calls"]
    probes = max(result["probes"], 1)
    untraced, traced = statistics.median(result["lat"]), statistics.median(result["traced_lat"])
    interp, imp_numpy, imp_mes = lay["cli.phases"]
    metrics = {
        "cli.interp_ms": (interp * ms, "ms"),
        "cli.import_numpy_ms": (imp_numpy * ms, "ms"),
        "cli.import_mes_ms": (imp_mes * ms, "ms"),
        "cli.parse_ms": (s["cli.parse"] * ms, "ms"),
        "cli.report_ms": (s["cli.report"] * ms, "ms"),
        "cli.self_ms": (s["cli"] * ms, "ms"),
        "io.decode_ms": (lay["io.decode"] * ms, "ms"),
        "io.encode_ms": (lay["io.encode"] * ms, "ms"),
        "json.loads_ms": (lay["json.loads"] * ms, "ms"),
        "json.dumps_ms": (lay["json.dumps"] * ms, "ms"),
        "io.bytes_per_op": (lay["io.bytes"], "count"),
        "io.self_ms": (s["io"] * ms, "ms"),
        "core.schmidt_rank_calls": (calls, "count"),
        "core.distinct_cut_ratio": (lay["core.distinct_cuts"] / calls if calls else 0.0, "ratio"),
        "core.local_ranks_ms": (lay["core.local_ranks"] * ms, "ms"),
        "core.apply_local_ms": (lay["core.apply_local"] * ms, "ms"),
        "core.self_ms": (s["core"] * ms, "ms"),
        "kernel.svd_calls": (lay["kernel.svd_calls"], "count"),
        "kernel.svd_ms": (lay["kernel.svd"] * ms, "ms"),
        "kernel.svd_gflop": (lay["kernel.svd_flop"] / 1e9, "Gflop"),
        "kernel.other_linalg_ms": (lay["kernel.other"] * ms, "ms"),
        "slocc.is_maximal_ms": (lay["slocc.is_maximal"] * ms, "ms"),
        "slocc.classify_ms": (lay["slocc.classify"] * ms, "ms"),
        "slocc.complement_map_ms": (lay["slocc.complement_map"] * ms, "ms"),
        "slocc.witness_ms": (lay["slocc.witness"] * ms, "ms"),
        "slocc.self_ms": (s["slocc"] * ms, "ms"),
        "slocc.undecidable_ratio": (result["probe_undecidable"] / probes, "ratio"),
        "slocc.wrong_ratio": (result["probe_wrong"] / probes, "ratio"),
        "rank.flattening_lb_ms": (lay["rank.flattening_lb"] * ms, "ms"),
        "rank.bounds_catalog_ms": (lay["rank.bounds_catalog"] * ms, "ms"),
        "rank.self_ms": (s["rank"] * ms, "ms"),
        "construct.self_ms": (s["construct"] * ms, "ms"),
        "trace.other_ms": (lay["other"] * ms, "ms"),
        "trace.overhead_pct": ((traced / untraced - 1) * 100, "%"),
    }
    total = sum(s.values()) + interp + imp_numpy + imp_mes + lay["other"]
    traced_mean = lay["traced_mean"]
    notes = ["self ms per op: " + " ".join(f"{k}={v * ms:.4f}" for k, v in s.items()),
             f"self times + cli phases + trace.other = {total * ms:.4f} ms; mean traced op "
             f"{traced_mean * ms:.4f} ms over {len(result['traced_lat'])} ops; smallest "
             f"per-op remainder {lay['min_other'] * ms:.4f} ms",
             f"traced and untraced answers differ on {result['mismatches']} inputs"]
    adds_up = abs(total - traced_mean) <= 1e-9 * traced_mean and lay["min_other"] >= -1e-6
    return metrics, notes, adds_up


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-mixed", "bulk-large", "slocc-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mes", "__init__.py")):
        print(f"mesbench: no mes source tree at {src}; run from a mes checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src, HERE] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    sys.path.insert(0, src)

    workdir = os.path.join(root, ".mesbench_work", str(os.getpid()))
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def measure(args, workdir):
    import selftest

    problems, corruptions = selftest.run(args.seed, os.path.join(workdir, "selftest"))
    print(f"self-test: {corruptions} corrupted answers, "
          f"{'all counted as failed' if not problems else 'PROBLEMS: ' + '; '.join(problems)}")

    def run_worker(setup_only):
        """Set-up seconds of one worker and, unless setup_only, its result."""
        proc, t_spawn = spawn_worker(args, os.path.join(workdir, "worker"), setup_only)
        try:
            setup = read_json_line(proc, "ready") - t_spawn
            result = None if setup_only else read_json_line(proc, "result")
            proc.stdout.read()
            code = proc.wait(timeout=TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code:
            raise RuntimeError(f"worker exited with {code}")
        return setup, result

    extra = 0 if args.trace else SETUP_RUNS - 1
    setups = [run_worker(True)[0] for _ in range(extra // 2)]
    setup, result = run_worker(False)
    setups.append(setup)
    setups += [run_worker(True)[0] for _ in range(extra - extra // 2)]

    metrics, notes, adds_up = per_layer(result) if args.trace else end_to_end(result, setups)
    env = result["env"]
    threads = [env["blas_threads"]] + result.get("layers", {}).get("blas_threads", [])
    correct = (not problems and result["failed"] == 0 and not result["errors"]
               and set(threads) - {None} <= {1} and adds_up and result.get("mismatches", 0) == 0)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"ops attempted {result['attempted']} failed {result['failed']} "
          f"undecidable {result['undecidable']} (cycles {result['cycles']}; conditioning probes "
          f"{result['probes']}, wrong {result['probe_wrong']}, "
          f"undecidable {result['probe_undecidable']})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in notes + result["errors"]:
        print(line)
    print(json.dumps({
        "correct": bool(correct), "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
