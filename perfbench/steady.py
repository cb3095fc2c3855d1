"""Steadiness mode: repeat a workload over several seeds and report the spread.

    python3 perfbench/steady.py --workload ksweep --seeds 0-9 [--trace 0]

Each repeat is a fresh run of the command in BENCHMARK.json with its
run_seconds.  For every metric prints the median and quartiles of the
repeats and the quartile spread (q3 - q1) / median next to the metric's
bound; "!" marks a spread above a third of the bound.  Every result is saved
under perfbench/out/ for comparing two sets of runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("ksweep", "csweep", "verify"))
    ap.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tag", default="", help="suffix for the saved results file")
    args = ap.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    results = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        results.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in declared[:6]),
              flush=True)

    run.OUT.mkdir(parents=True, exist_ok=True)
    path = run.OUT / f"steady-{args.workload}-trace{args.trace}{args.tag}.json"
    path.write_text(json.dumps(results, indent=1), encoding="utf-8")
    print(f"{'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
    for m in declared:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = m.get("bound")
        flag = "!" if bound is not None and spread > bound / 3 else ""
        print(f"{m['name']:28s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
              f"{bound if bound is not None else '':>6}{flag}")
    print(f"all correct: {all(r['correct'] for r in results)}; saved {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
