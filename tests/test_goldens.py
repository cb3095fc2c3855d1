"""Behaviour goldens: exact counters checked in, so a refactor must reproduce them.

The engine grid is every policy x k in {1, 5, 40} x B in {1, 10, 40} x
C in {1, 5, 10} on one seeded 2000-slot ON-OFF trace per k, run on both the
fast path and the general path.  The construction rows hold the target
and comparator counters of every construction at its golden-suite and
constructions-suite settings; a "reference" comparator is the replay of its
accept mask.  The trace rows pin the generated traffic, and the
construction-trace rows every construction setting, to the bytes of its
JSON-lines file.  ``verify_lines.txt`` pins the report lines that
``fifosim verify`` prints for the golden, constructions and micro suites.
``event_logs.json`` pins the general path's event log, as the sha256 of its
JSON form, for every policy at k in {5, 40}, B in {1, 10}, C in {1, 5}, and
for every construction's reference replay.

Re-record (only when a behaviour change is intended) with
``PYTHONPATH=src python tests/test_goldens.py``, which writes all three files.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest

from fifosim import (
    MmppParams,
    gen_adversarial,
    gen_mmpp,
    make_policy,
    replay_accept_mask,
    run,
    write_trace,
)
from fifosim.oracle import ScriptedAdmissionPolicy
from fifosim.verify import CONSTRUCTION_CASES, GOLDEN_CASES, constructions_suite, golden_suite, verify_micro

GOLDEN_PATH = Path(__file__).parent / "goldens" / "engine_counters.json"
VERIFY_LINES_PATH = GOLDEN_PATH.parent / "verify_lines.txt"
EVENT_LOGS_PATH = GOLDEN_PATH.parent / "event_logs.json"

POLICIES = ("npo", "po", "lpo", "lpo_p", "srpt")
KS = (1, 5, 40)
BS = (1, 10, 40)
CS = (1, 5, 10)
SLOTS = 2000

CONSTRUCTIONS = GOLDEN_CASES + CONSTRUCTION_CASES


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


def _file_row(trace) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        write_trace(trace, path)
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return {"packets": trace.packet_count, "sha256": digest}


def trace_rows() -> list[dict]:
    return [{"k": k, **_file_row(_mmpp(k))} for k in KS]


def construction_trace_rows() -> list[dict]:
    return [
        {"construction": name, **kw, **_file_row(gen_adversarial(name, **kw).trace)}
        for name, kw in CONSTRUCTIONS
    ]


def engine_rows(k: int) -> list[dict]:
    """Counters for one k over the B x C x policy grid, each from both paths."""
    trace = _mmpp(k)
    rows = []
    for B in BS:
        for C in CS:
            for pol in POLICIES:
                fast = _counters(run(trace, pol, B, C))
                general = _counters(run(trace, make_policy(pol), B, C))
                assert fast == general, (pol, k, B, C, fast, general)
                rows.append({"policy": pol, "k": k, "B": B, "C": C, **fast})
    return rows


def construction_rows(name: str, kwargs: dict) -> list[dict]:
    adv = gen_adversarial(name, **kwargs)
    B, C = kwargs["B"], kwargs.get("C", 1)
    rows = []
    for role, pol in (("target", adv.target), ("comparator", adv.comparator)):
        if pol == "reference":
            res = replay_accept_mask(adv.trace, adv.reference_mask, B, C)
        else:
            res = run(adv.trace, pol, B, C)
        rows.append({"construction": name, **kwargs, "role": role, "policy": pol, **_counters(res)})
    return rows


def _log_row(res) -> dict:
    events = [
        [ev.slot, ev.admitted, ev.dropped_on_arrival, ev.pushed_out, ev.processed, ev.transmitted]
        for ev in res.events
    ]
    digest = hashlib.sha256(json.dumps(events).encode()).hexdigest()
    return {"slots": len(events), "sha256": digest}


def event_log_rows() -> list[dict]:
    """Event-log digests of the general path: the policy grid, then each reference replay."""
    rows = []
    for k in (5, 40):
        trace = _mmpp(k)
        for B in (1, 10):
            for C in (1, 5):
                for pol in POLICIES:
                    res = run(trace, make_policy(pol), B, C, record_events=True)
                    rows.append({"policy": pol, "k": k, "B": B, "C": C, **_log_row(res)})
    for name, kw in CONSTRUCTIONS:
        adv = gen_adversarial(name, **kw)
        if adv.reference_mask is not None:
            policy = ScriptedAdmissionPolicy(adv.reference_mask)
            res = run(adv.trace, policy, kw["B"], kw.get("C", 1), record_events=True)
            rows.append({"construction": name, **kw, **_log_row(res)})
    return rows


def verify_lines() -> str:
    reports = golden_suite() + constructions_suite() + [verify_micro(200, seed=0)]
    return "".join(rep.line() + "\n" for rep in reports)


def record() -> dict:
    return {
        "traces": trace_rows(),
        "engine": [row for k in KS for row in engine_rows(k)],
        "constructions": [row for name, kw in CONSTRUCTIONS for row in construction_rows(name, kw)],
        "construction_traces": construction_trace_rows(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_generated_traces_match_goldens(golden):
    assert trace_rows() == golden["traces"]


def test_construction_traces_match_goldens(golden):
    assert construction_trace_rows() == golden["construction_traces"]


@pytest.mark.parametrize("k", KS)
def test_engine_counters_match_goldens(golden, k):
    expected = [row for row in golden["engine"] if row["k"] == k]
    assert len(expected) == len(POLICIES) * len(BS) * len(CS)
    assert engine_rows(k) == expected


def test_construction_counters_match_goldens(golden):
    got = [row for name, kw in CONSTRUCTIONS for row in construction_rows(name, kw)]
    assert got == golden["constructions"]


def test_event_logs_match_goldens():
    assert event_log_rows() == json.loads(EVENT_LOGS_PATH.read_text(encoding="utf-8"))


def test_verify_lines_match_goldens():
    assert verify_lines() == VERIFY_LINES_PATH.read_text(encoding="utf-8")


def _write_rows(fh, rows, indent: str) -> None:
    fh.write(",\n".join(indent + json.dumps(row) for row in rows))


if __name__ == "__main__":
    data = record()
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for i, (section, rows) in enumerate(data.items()):
            fh.write(f'  "{section}": [\n')
            _write_rows(fh, rows, "    ")
            fh.write("\n  ]" + (",\n" if i < len(data) - 1 else "\n"))
        fh.write("}\n")
    VERIFY_LINES_PATH.write_text(verify_lines(), encoding="utf-8")
    with open(EVENT_LOGS_PATH, "w", encoding="utf-8") as fh:
        fh.write("[\n")
        _write_rows(fh, event_log_rows(), "  ")
        fh.write("\n]\n")
    print(f"wrote {GOLDEN_PATH}, {VERIFY_LINES_PATH} and {EVENT_LOGS_PATH}")
