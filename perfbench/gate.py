"""The golden gate: every simulated count must equal the checked-in one.

For a fixed seed the counts are exact, so they are a correctness check, not
a metric.  One operation is one sweep cell or one verify report; each pass
adds one more for its digest (the sha256 of results.csv for a sweep, of the
ordered engine and oracle counters for verify).  A mismatch or a broken
invariant fails the operation it belongs to and is printed.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load(workload: str) -> dict:
    with open(golden_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def check(golden: dict, config: dict, master_seed: int, observed: dict, problems) -> tuple[int, int, list[str]]:
    """Return (attempted, failed, messages) for one pass."""
    if golden["config"] != config:
        return 1, 1, [f"goldens were recorded for config {golden['config']}, not {config}"]
    expected = golden["seeds"].get(str(master_seed))
    if expected is None:
        return 1, 1, [f"no golden entry for master seed {master_seed}"]
    part = "cells" if "cells" in expected else "reports"
    digest = "results_csv_sha256" if part == "cells" else "rows_sha256"
    bad: dict[str, list[str]] = {}
    for key, message in problems:
        bad.setdefault(key, []).append(message)
    want, got = expected[part], observed[part]
    for key in sorted(set(want) | set(got)):
        if want.get(key) != got.get(key):
            bad.setdefault(key, []).append(f"{got.get(key)} != golden {want.get(key)}")
    if observed[digest] != expected[digest]:
        bad.setdefault(digest, []).append(f"{observed[digest]} != golden {expected[digest]}")
    messages = [f"GOLDEN MISMATCH {part[:-1]} {key}: {m}" for key, ms in bad.items() for m in ms]
    return len(set(want) | set(got) | set(bad) | {digest}), len(bad), messages
