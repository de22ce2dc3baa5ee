"""One benchmark process: set a workload up, then measure it.

Usage: python mesbench/worker.py <workload> <seed> <seconds> <trace> <workdir> [--setup-only]

Prints one JSON line {"ready": t} the moment set-up (imports, inputs,
warm-up) ends, t being CLOCK_MONOTONIC seconds, then, unless --setup-only,
one JSON line {"result": ...} with the raw measurements. run.py turns those
into metrics; the BLAS environment is set by run.py before this starts.
"""

import gc
import json
import resource
import statistics
import sys
import time
import traceback

import numpy  # noqa: F401  (set-up includes importing numpy)

import envinfo
from checks import WRONG, Tally
from tracer import SELF_LAYERS, Tracer, layer_totals
from workloads import WORKLOADS


def _trace_record(wl, tracer, raw, t0):
    """Seconds and counts per layer for one traced op."""
    if wl.in_process:
        rec = layer_totals(tracer)
        rec["cli.phases"] = [0.0, 0.0, 0.0]
        return rec
    lines = [l for l in raw[2].decode().splitlines() if l.startswith("MESBENCH_TRACE ")]
    if not lines:
        return None
    child = json.loads(lines[-1][len("MESBENCH_TRACE "):])
    rec = child["layers"]
    rec["cli.phases"] = [child["t_start"] - t0, child["t_numpy"] - child["t_start"],
                         child["t_mes"] - child["t_numpy"]]
    rec["blas_threads"] = child["blas_threads"]
    return rec


def _run_op(wl, inp, traced, tracer, tally, errors):
    """Time one op; the in-process tracer is switched on around traced ones."""
    if wl.gc_each_op:
        gc.collect()
    if traced and tracer:
        tracer.reset()
        tracer.enable()
    t0 = time.perf_counter()
    try:
        raw = wl.run(inp, traced)
    except Exception:  # a crash is a failed op, reported with its traceback
        raw = None
        errors.append(traceback.format_exc())
    dt = time.perf_counter() - t0
    if traced and tracer:
        tracer.disable()
    if raw is None:
        tally.add(WRONG)
        return dt, None, None
    try:
        main, probe, comparable = wl.judge(inp, raw)
    except Exception:  # an answer too malformed to judge is a wrong one
        errors.append(traceback.format_exc())
        main, probe, comparable = WRONG, None, None
    tally.add(main, probe)
    rec = _trace_record(wl, tracer, raw, t0) if traced and main != WRONG else None
    return dt, comparable, rec


def measure(wl, seconds, trace):
    """Whole cycles of ops until ``seconds`` have passed; with trace, each input twice."""
    tally, errors = Tally(), []
    lat, traced_lat, records, mismatches = [], [], [], 0
    tracer = None
    if trace and wl.in_process:
        tracer = Tracer()
        tracer.install()
    i = 0
    t_end = time.perf_counter() + seconds
    while True:
        for _ in range(wl.cycle):
            inp = wl.prepare(i)
            if not trace:
                lat.append(_run_op(wl, inp, False, tracer, tally, errors)[0])
            else:
                results = {}
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    results[traced] = _run_op(wl, inp, traced, tracer, tally, errors)
                lat.append(results[False][0])
                traced_lat.append(results[True][0])
                records.append(results[True][2])
                mismatches += results[False][1] != results[True][1]
            i += 1
        if time.perf_counter() >= t_end:
            break
    out = {"lat": lat, "attempted": tally.attempted, "failed": tally.failed,
           "undecidable": tally.undecidable, "probes": tally.probes,
           "probe_wrong": tally.probe_wrong, "probe_undecidable": tally.probe_undecidable,
           "cycles": i // wl.cycle, "errors": errors[:3]}
    if trace:
        out.update(traced_lat=traced_lat, mismatches=mismatches,
                   layers=summarize(records, traced_lat))
    return out


def summarize(records, traced_lat):
    """Mean per traced op of every layer number, and the smallest remainder.

    The remainder of an op is its time minus every self time and CLI phase;
    ops with a wrong answer carry no record and are left out.
    """
    pairs = [(t, r) for t, r in zip(traced_lat, records) if r is not None]
    if not pairs:
        raise RuntimeError("no traced op answered correctly")
    n = len(pairs)
    mean = {k: sum(r[k] for _, r in pairs) / n
            for k in pairs[0][1] if k not in ("self", "cli.phases", "blas_threads")}
    mean["self"] = {layer: sum(r["self"][layer] for _, r in pairs) / n for layer in SELF_LAYERS}
    mean["cli.phases"] = [sum(r["cli.phases"][j] for _, r in pairs) / n for j in range(3)]
    remainders = [t - sum(r["self"].values()) - sum(r["cli.phases"]) for t, r in pairs]
    mean["other"] = statistics.fmean(remainders)
    mean["min_other"] = min(remainders)
    mean["traced_mean"] = statistics.fmean(t for t, _ in pairs)
    mean["blas_threads"] = sorted({r.get("blas_threads") for _, r in pairs} - {None})
    return mean


def main(argv):
    name, seed, seconds, trace, workdir = argv[:5]
    seed, seconds, trace = int(seed), float(seconds), int(trace)
    wl = WORKLOADS[name](seed, workdir)
    wl.warm_up()
    gc.collect()
    print(json.dumps({"ready": time.perf_counter()}), flush=True)
    try:
        if "--setup-only" in argv:
            return 0
        result = measure(wl, seconds, trace)
        usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        result["peak_rss_mb"] = usage / 1024.0
        result["env"] = envinfo.record(seed)
        print(json.dumps({"result": result}), flush=True)
    finally:
        wl.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
