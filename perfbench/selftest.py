"""Self-test of the harness at tiny scale; takes under a minute.

    python3 perfbench/selftest.py

Checks that
1. every metric named in BENCHMARK.json is printed, with its unit, by a
   traced and an untraced run of each workload, and no operation fails;
2. one corrupted golden entry makes the same run report a failed operation,
   so the gate fails when it should;
3. traced and untraced passes produce identical counters;
4. in a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
Prints one line per check and exits 0 when all hold.
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import run

SEED = 3


def _run(argv, goldens) -> tuple[int, list[str]]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = run.main(argv, tiny=True, goldens=goldens)
    return rc, buf.getvalue().splitlines()


def _argv(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]


def main() -> int:
    error = run.import_checkout()
    if error:
        print(f"selftest: {error}", file=sys.stderr)
        return 2
    import make_goldens
    import tracing
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    goldens = {name: make_goldens.build(name, [SEED], tiny=True) for name in workloads.WORKLOADS}
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            rc, lines = _run(_argv(name, trace), goldens)
            result = json.loads(lines[-1])
            printed = {(m["name"], m["unit"]) for m in declared[trace]
                       if any(line.startswith(f"METRIC {m['name']} = ") and line.split()[4] == m["unit"]
                              for line in lines)}
            reported = {(k, v["unit"]) for k, v in result["metrics"].items()}
            wanted = {(m["name"], m["unit"]) for m in declared[trace]}
            expect(rc == 0 and printed == wanted and reported == wanted,
                   f"{name} trace={trace}: every declared metric printed with its unit")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} trace={trace}: no operation failed")

        bad = copy.deepcopy(goldens)
        entry = bad[name]["seeds"][str(SEED)]
        if workloads.Bench(name, SEED, run.OUT / name).is_sweep:
            entry["cells"]["0:0"]["npo"][0] += 1
        else:
            entry["reports"]["0"][2]["ratio"] = -1
        rc, lines = _run(_argv(name, 0), bad)
        result = json.loads(lines[-1])
        expect(rc == 0 and not result["correct"] and result["failed"] > 0
               and any(line.startswith("GOLDEN MISMATCH") for line in lines),
               f"{name}: a corrupted golden entry fails {result['failed']} of {result['attempted']} operations")

        bench = workloads.Bench(name, SEED, run.OUT / name, tiny=True)
        untraced = bench.observe(bench.run_pass())
        traced = bench.observe(bench.run_pass(tracing.Tracer(), workers=1))
        expect(untraced == traced, f"{name}: traced and untraced passes give identical counters")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    res = subprocess.run([sys.executable, *spec["command"][1:], *_argv("verify", 0)], cwd=bare,
                         capture_output=True, text=True, timeout=180)
    expect(res.returncode != 0 and '"correct"' not in res.stdout,
           f"bare directory: exit code {res.returncode}, no result printed")
    shutil.rmtree(bare)

    print("selftest: " + ("all checks passed" if not problems else f"{len(problems)} checks failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
