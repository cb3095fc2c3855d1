"""Record the goldens: exact counts of every workload at every master seed.

    python3 perfbench/make_goldens.py [--workload ksweep]

Writes perfbench/goldens/<workload>.json for master seeds 0..10 (seed 10 is
the held-out one).  The goldens pin behaviour: a change that only makes
fifosim faster must leave them byte-identical, so re-record them only for a
change that is meant to alter simulated counts, and say so.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import run


def build(name: str, seeds, tiny: bool = False) -> dict:
    """Golden entries from one untraced pass per seed; refuses a pass that breaks an invariant."""
    import workloads

    entries = {}
    for seed in seeds:
        bench = workloads.Bench(name, seed, run.OUT / name, tiny=tiny)
        observed, problems = bench.observe(bench.run_pass())
        if problems:
            raise SystemExit(f"{name} master seed {seed}: {problems[:5]}")
        entries[str(seed)] = observed
    return {"workload": name, "config": bench.golden_config(), "seeds": entries}


def dumps(golden: dict) -> str:
    """Indented JSON with each list of numbers on one line, so a changed count is a one-line diff."""
    text = json.dumps(golden, indent=1, sort_keys=True)
    return re.sub(r"\[\s+([-+.\deE,\s]+?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("ksweep", "csweep", "verify"), action="append")
    args = ap.parse_args(argv)
    error = run.import_checkout()
    if error:
        print(f"make_goldens: {error}", file=sys.stderr)
        return 2
    import gate
    import workloads

    gate.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in args.workload or workloads.WORKLOADS:
        golden = build(name, range(workloads.HOLDOUT_SEED + 1))
        gate.golden_path(name).write_text(dumps(golden), encoding="utf-8")
        print(f"wrote {gate.golden_path(name)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
