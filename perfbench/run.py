"""Benchmark fifosim the way `fifosim sweep` and `fifosim verify` use it.

    python3 perfbench/run.py --workload ksweep --seed 0 --seconds 35 --trace 0

Run it from anywhere; it imports fifosim from the ``src/`` next to this
directory and writes only under ``perfbench/out/``.  One run warms up, then
repeats passes of the workload until ``--seconds`` have gone (at least one),
checks every pass against the goldens, and prints each metric with its
median and quartiles.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.

``--seed n`` selects master seed n mod 10; ``--holdout`` selects master
seed 10, which is kept back for checking claims on a seed not tuned on.
All times are host times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from hashlib import sha256
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = {"wall_s": "s", "packets_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
ENGINE_LABELS = ("npo", "po", "lpo", "lpo_p", "srpt", "general")
PER_LAYER = {
    "traffic.gen_s": "s",
    "traffic.ns_per_packet": "ns",
    "traffic.trace_mb": "MB",
    **{f"engine.{p}.{m}": u for p in ENGINE_LABELS for m, u in (("s", "s"), ("ns_per_packet", "ns"))},
    "trace.validate_s": "s",
    "oracle.search_s": "s",
    "oracle.states": "count",
    "oracle.ns_per_state": "ns",
    "adversarial.gen_s": "s",
    "sweep.cell_p50_s": "s",
    "sweep.cell_p90_s": "s",
    "sweep.parallel_eff": "ratio",
    "sweep.write_s": "s",
    "sweep.self_s": "s",
    "verify.self_s": "s",
    "bench.tracing_overhead_s": "s",
    "bench.traced_wall_s": "s",
}
# span names -> the layer metric their self time is reported under
SELF_TIME = {
    "traffic.gen": "traffic.gen_s",
    **{f"engine.{p}": f"engine.{p}.s" for p in ENGINE_LABELS},
    "trace.validate": "trace.validate_s",
    "oracle.search": "oracle.search_s",
    "adversarial.gen": "adversarial.gen_s",
    "sweep": "sweep.self_s",
    "sweep.write": "sweep.write_s",
    "verify": "verify.self_s",
}

SETUP_RUNS = 7
SETUP_CODE = (
    "from fifosim import MmppParams, gen_mmpp, run\n"
    "run(gen_mmpp(MmppParams(k=5), 200, 1), 'po', 10, 1, validate=False)\n"
)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("ksweep", "csweep", "verify"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--holdout", action="store_true", help="run the held-out master seed")
    return ap.parse_args(argv)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_checkout() -> str | None:
    """Import fifosim from this checkout's src/; return why not, or None."""
    if not (SRC / "fifosim" / "__init__.py").is_file():
        return f"no fifosim sources at {SRC / 'fifosim'}; run from a full checkout"
    sys.path.insert(0, str(SRC))
    import fifosim

    if Path(fifosim.__file__).resolve().parent != (SRC / "fifosim").resolve():
        return f"imported fifosim from {fifosim.__file__}, not from {SRC}"
    return None


def main(argv=None, *, tiny: bool = False, goldens: dict | None = None) -> int:
    """Run one benchmark invocation; ``tiny`` and ``goldens`` serve the self-test."""
    args = _parse(argv)
    error = import_checkout()
    if error:
        return _fail(error)
    import gate
    import tracing
    import workloads

    master = workloads.HOLDOUT_SEED if args.holdout else args.seed % workloads.GOLDEN_SEEDS
    bench = workloads.Bench(args.workload, master, OUT / args.workload, tiny=tiny)
    try:
        golden = goldens[args.workload] if goldens is not None else gate.load(args.workload)
    except FileNotFoundError:
        return _fail(f"no goldens at {gate.golden_path(args.workload)}")
    config = bench.golden_config()
    print(f"# perfbench {args.workload} seed={args.seed} master_seed={master} trace={args.trace} "
          f"seconds={args.seconds:g}", flush=True)

    attempted = failed = 0

    def gated(p):
        nonlocal attempted, failed
        observed, problems = bench.observe(p)
        a, f, messages = gate.check(golden, config, master, observed, problems)
        attempted += a
        failed += f
        for m in messages:
            print(m, flush=True)

    bench.run_pass(warmup=True)  # neither timed nor gated
    samples: dict[str, list[float]] = defaultdict(list)
    deadline = perf_counter() + args.seconds
    if not args.trace:
        while True:
            p = bench.run_pass()
            gated(p)
            samples["wall_s"].append(p.wall_s)
            samples["cpu_s"].append(p.cpu_s)
            samples["packets_per_s"].append(workloads.packets_offered(p.rows) / p.wall_s)
            if perf_counter() + statistics.median(samples["wall_s"]) > deadline:
                break
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        samples["peak_rss_mb"].append((self_kb + child_kb) / 1024)
        samples["setup_s"] = measure_setup()
        units = END_TO_END
    else:
        while True:
            base = bench.run_pass()
            gated(base)
            tracer = tracing.Tracer()
            # traced sweeps run serially so that every span is in this process
            p = bench.run_pass(tracer, workers=1)
            gated(p)
            summary = tracing.summarize(tracer.spans)
            for name, value in layer_metrics(summary, p.wall_s, base.wall_s, bench.is_sweep).items():
                samples[name].append(value)
            if bench.is_sweep or perf_counter() + base.wall_s + p.wall_s > deadline:
                break
        samples["traffic.trace_mb"].append(trace_mb(bench) if bench.is_sweep else 0.0)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", tracer.spans[0][2])
        layer_total = sum(summary["self_s"].values())
        print(f"# accounting: traced pass {p.wall_s:.6f} s = layer self times {layer_total:.6f} s"
              f" + tracing overhead {summary['bookkeeping_s']:.6f} s"
              f" + unattributed {p.wall_s - layer_total - summary['bookkeeping_s']:.6f} s", flush=True)
        units = PER_LAYER

    metrics = {}
    record_samples = {}
    for name, unit in units.items():
        values = samples[name]
        q1, med, q3 = workloads.quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        record_samples[name] = {"n": len(values), "q1": q1, "median": med, "q3": q3}
        print(f"METRIC {name} = {med!r} {unit}  (median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g})")
    if not args.trace:
        print(f"METRIC failed_frac = {failed / attempted!r} ratio  ({failed} of {attempted} operations failed)")

    record = run_record(args, master, record_samples, attempted, failed)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("RECORD " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}),
          flush=True)
    return 0


def layer_metrics(summary: dict, traced_wall: float, untraced_wall: float, is_sweep: bool) -> dict:
    """Per-layer metrics of one traced pass.

    ``untraced_wall`` is the wall time of an untraced pass with the pool at
    full size, the denominator of the sweep's parallel efficiency.
    """
    import workloads

    self_s, count = summary["self_s"], summary["count"]
    unknown = set(self_s) - set(SELF_TIME)
    if unknown:
        raise RuntimeError(f"spans with no layer metric: {sorted(unknown)}")
    m = {metric: self_s.get(span, 0.0) for span, metric in SELF_TIME.items()}

    def ns_per(span: str, n: int) -> float:
        return self_s.get(span, 0.0) * 1e9 / n if n else 0.0

    m["traffic.ns_per_packet"] = ns_per("traffic.gen", summary["gen_packets"])
    for p in ENGINE_LABELS:
        m[f"engine.{p}.ns_per_packet"] = ns_per(f"engine.{p}", count.get(f"engine.{p}", 0))
    m["oracle.states"] = count.get("oracle.search", 0)
    m["oracle.ns_per_state"] = ns_per("oracle.search", m["oracle.states"])
    cells = summary["cell_s"]
    m["sweep.cell_p50_s"] = statistics.median(cells) if cells else 0.0
    m["sweep.cell_p90_s"] = statistics.quantiles(cells, n=10)[8] if len(cells) > 1 else sum(cells, 0.0)
    m["sweep.parallel_eff"] = sum(cells) / (workloads.WORKERS * untraced_wall) if is_sweep else 0.0
    m["bench.tracing_overhead_s"] = summary["bookkeeping_s"]
    m["bench.traced_wall_s"] = traced_wall
    return m


def trace_mb(bench) -> float:
    """tracemalloc peak of generating the pass's first cell, in a call of its own."""
    from fifosim import MmppParams, derive_run_seed, gen_mmpp

    c = bench.sweep_config()
    k, _, _ = c.point(c.values[0])
    params = MmppParams(lambda_off=c.lambda_off, on_count_min=c.on_count_min, on_count_max=c.on_count_max,
                        p_on_to_off=c.p_on_to_off, p_off_to_on=c.p_off_to_on, k=k)
    seed = derive_run_seed(c.master_seed, 0, 0)
    tracemalloc.start()
    try:
        gen_mmpp(params, c.slots, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def measure_setup() -> list[float]:
    """Wall seconds of fresh interpreters importing fifosim and running one tiny simulation."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        # no timeout: with one, subprocess polls the child with sleeps of up
        # to 50 ms, which would quantise the measured time
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def run_record(args, master: int, samples: dict, attempted: int, failed: int) -> dict:
    """Provenance carried by every output."""
    import numpy
    import workloads

    git_sha = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                 check=False, timeout=30)
            git_sha = res.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = sha256()
    for path in sorted((SRC / "fifosim").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "master_seed": master,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "sweep_workers": workloads.WORKERS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "samples": samples,
    }


if __name__ == "__main__":
    sys.exit(main())
