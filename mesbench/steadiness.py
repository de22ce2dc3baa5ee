"""Run every workload on several seeds and report how steady each metric is.

Usage, from the root of a mes checkout:

    python3 mesbench/steadiness.py [--seeds 1-10] [--workloads a,b] [--seconds 30]

Workloads are interleaved seed by seed, so slow drift of the host spreads
over all of them. For each end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (q3 - q1) as a
share of the median, and the metric's bound from BENCHMARK.json, as a
markdown table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            t0 = time.time()
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", "0"], capture_output=True, text=True)
            if proc.returncode:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[w].append(res)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
            print(f"{time.strftime('%H:%M:%S')} {w} seed {seed} {time.time() - t0:.1f}s "
                  f"correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} {values}", flush=True)

    print("\n| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for w, results in runs.items():
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"| {w} | {name} | {med:.5g} | {q1:.5g} | {q3:.5g} | "
                  f"{(q3 - q1) / med:.4f} | {bounds[name]} |")


if __name__ == "__main__":
    main()
