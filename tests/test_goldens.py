"""Behaviour goldens: exact counters checked in, so a refactor must reproduce them.

The engine grid is every policy x k in {1, 5, 40} x B in {1, 10, 40} x
C in {1, 5, 10} on one seeded 2000-slot ON-OFF trace per k, run on both the
fast path and the event-logging path.  The construction rows hold the target
and comparator counters of every construction at its golden-suite and
constructions-suite settings; a "reference" comparator is the replay of its
accept mask.  The trace rows pin the generated traffic to the bytes of its
JSON-lines file.

Re-record (only when a behaviour change is intended) with
``PYTHONPATH=src python tests/test_goldens.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest

from fifosim import MmppParams, gen_adversarial, gen_mmpp, reference_accept_mask, replay_accept_mask, run, write_trace

GOLDEN_PATH = Path(__file__).parent / "goldens" / "engine_counters.json"

POLICIES = ("npo", "po", "lpo", "lpo_p", "srpt")
KS = (1, 5, 40)
BS = (1, 10, 40)
CS = (1, 5, 10)
SLOTS = 2000

# verify.golden_suite and verify.constructions_suite settings
CONSTRUCTIONS = [
    ("LPO_VS_PO", dict(B=10, k=6, C=1, periods=200)),
    ("PO_VS_LPO", dict(B=10, C=1, periods=200)),
    ("KGEB", dict(B=10, k=10, C=1, periods=100)),
    ("PO_KLTB", dict(B=27, k=3, C=1, periods=20)),
    ("LPO_KLTB", dict(B=20, k=3, C=1, periods=20)),
    ("NPO_TIGHT", dict(B=10, k=5, C=1, periods=1000)),
    ("LOG_RECURSIVE", dict(B=10, C=1, periods=2, level=0)),
    ("LOG_RECURSIVE", dict(B=10, C=1, periods=2, level=1)),
    ("LOG_RECURSIVE", dict(B=10, C=1, periods=2, level=2)),
    ("PO_VS_LPO", dict(B=6, periods=50)),
    ("PO_VS_LPO", dict(B=16, periods=50)),
    ("LPO_VS_PO", dict(B=8, k=5, periods=50)),
    ("LPO_VS_PO", dict(B=20, k=11, periods=50)),
    ("KGEB", dict(B=5, k=5, periods=50)),
    ("KGEB", dict(B=20, k=25, periods=50)),
    ("PO_KLTB", dict(B=40, k=2, periods=10)),
    ("PO_KLTB", dict(B=40, k=5, periods=10)),
    ("LPO_KLTB", dict(B=24, k=4, periods=10)),
    ("LPO_KLTB", dict(B=40, k=2, periods=10)),
    ("NPO_TIGHT", dict(B=8, k=4, C=2, periods=500)),
    ("NPO_TIGHT", dict(B=10, k=10, C=1, periods=800)),
    ("LOG_RECURSIVE", dict(B=8, periods=2, level=0)),
    ("LOG_RECURSIVE", dict(B=12, periods=2, level=1)),
]


def _counters(res) -> dict:
    return {
        "transmitted": res.transmitted_count,
        "dropped": res.dropped_count,
        "pushout": res.pushout_count,
        "admitted": res.admitted_count,
        "final_slot": res.final_slot,
    }


def _mmpp(k: int):
    return gen_mmpp(MmppParams(k=k), SLOTS, seed=k)


def trace_rows() -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for k in KS:
            trace = _mmpp(k)
            path = os.path.join(tmp, f"k{k}.jsonl")
            write_trace(trace, path)
            digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            rows.append({"k": k, "packets": trace.packet_count, "sha256": digest})
    return rows


def engine_rows(k: int) -> list[dict]:
    """Counters for one k over the B x C x policy grid, each from both paths."""
    trace = _mmpp(k)
    rows = []
    for B in BS:
        for C in CS:
            for pol in POLICIES:
                fast = _counters(run(trace, pol, B, C))
                general = _counters(run(trace, pol, B, C, record_events=True))
                assert fast == general, (pol, k, B, C, fast, general)
                rows.append({"policy": pol, "k": k, "B": B, "C": C, **fast})
    return rows


def construction_rows(name: str, kwargs: dict) -> list[dict]:
    adv = gen_adversarial(name, **kwargs)
    B, C = kwargs["B"], kwargs.get("C", 1)
    rows = []
    for role, pol in (("target", adv.target), ("comparator", adv.comparator)):
        if pol == "reference":
            res = replay_accept_mask(adv.trace, reference_accept_mask(adv), B, C)
        else:
            res = run(adv.trace, pol, B, C)
        rows.append({"construction": name, **kwargs, "role": role, "policy": pol, **_counters(res)})
    return rows


def record() -> dict:
    return {
        "traces": trace_rows(),
        "engine": [row for k in KS for row in engine_rows(k)],
        "constructions": [row for name, kw in CONSTRUCTIONS for row in construction_rows(name, kw)],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_generated_traces_match_goldens(golden):
    assert trace_rows() == golden["traces"]


@pytest.mark.parametrize("k", KS)
def test_engine_counters_match_goldens(golden, k):
    expected = [row for row in golden["engine"] if row["k"] == k]
    assert len(expected) == len(POLICIES) * len(BS) * len(CS)
    assert engine_rows(k) == expected


def test_construction_counters_match_goldens(golden):
    got = [row for name, kw in CONSTRUCTIONS for row in construction_rows(name, kw)]
    assert got == golden["constructions"]


if __name__ == "__main__":
    data = record()
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for i, (section, rows) in enumerate(data.items()):
            fh.write(f'  "{section}": [\n')
            fh.write(",\n".join("    " + json.dumps(row) for row in rows))
            fh.write("\n  ]" + (",\n" if i < len(data) - 1 else "\n"))
        fh.write("}\n")
    print(f"wrote {GOLDEN_PATH}")
