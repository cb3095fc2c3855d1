"""Spans around calls into fifosim, recorded from outside the package.

Each public function the benchmark cares about is replaced, in the namespace
of the module that calls it, by a wrapper.  Without a tracer the wrapper only
keeps the counters the golden gate needs; with one it also records a span:
name, start, end, parent span and cell id.  Spans stay in memory and are
written out when the run ends.

A wrapper times four instants: t0 on entry, t1 just before the wrapped call,
t2 just after it, t3 before returning.  The span covers [t1, t2]; the rest is
tracing bookkeeping.  A parent's self time subtracts each child's whole
[t0, t3], so the self times of all spans plus the bookkeeping add up to the
traced pass's wall time.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# module whose global is patched -> names its code looks up at call time
PATCHED = {
    "fifosim.sweep": ("gen_mmpp", "run"),
    "fifosim.verify": ("run", "offline_opt_bruteforce", "replay_accept_mask", "gen_adversarial"),
    "fifosim.oracle": ("run",),
    "fifosim.engine": ("validate_trace",),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, t0, t1, t2, t3, parent, cell, count)
        self._stack = [-1]
        self.cell = -1

    def call(self, name, fn, args=(), kwargs=None, *, new_cell=False, count=None):
        t0 = perf_counter()
        if new_cell:
            self.cell += 1
        cell = self.cell
        parent = self._stack[-1]
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t1 = perf_counter()
        try:
            res = fn(*args, **(kwargs or {}))
        finally:
            t2 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, t2, t2, parent, cell, 0)
        n = count(res) if count else 0
        self.spans[idx] = (name, t0, t1, t2, perf_counter(), parent, cell, n)
        return res

    def write(self, path: Path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, _t0, t1, t2, _t3, parent, cell, n) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t1 - origin, "end": t2 - origin,
                                     "parent": parent, "cell": cell, "count": n}) + "\n")


def summarize(spans) -> dict:
    """Self time and work count per span name, and the tracing bookkeeping.

    Also returns the seconds of each sweep cell (the spans of one cell
    directly under the sweep span) and the packets generated for the cells
    that called gen_mmpp, taken from the offers of their engine runs.
    """
    cover = [0.0] * len(spans)
    for name, t0, t1, t2, t3, parent, cell, n in spans:
        if parent >= 0:
            cover[parent] += t3 - t0
    self_s: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    cell_s: dict[int, float] = defaultdict(float)
    offers: dict[int, int] = defaultdict(int)
    gen_cells = set()
    bookkeeping = 0.0
    for i, (name, t0, t1, t2, t3, parent, cell, n) in enumerate(spans):
        self_s[name] += (t2 - t1) - cover[i]
        count[name] += n
        bookkeeping += (t1 - t0) + (t3 - t2)
        if parent >= 0 and spans[parent][0] == "sweep":
            cell_s[cell] += t3 - t0
        if name == "traffic.gen":
            gen_cells.add(cell)
        elif name.startswith("engine.") and n > offers[cell]:
            offers[cell] = n
    return {
        "self_s": dict(self_s),
        "count": dict(count),
        "bookkeeping_s": bookkeeping,
        "cell_s": [cell_s[c] for c in sorted(cell_s)],
        "gen_packets": sum(offers[c] for c in gen_cells),
    }


class Recorder:
    """Counters of every engine run and oracle search, for the golden gate.

    Sweep workers are forked from this process and inherit the wrappers; a
    worker appends its rows to a spool file of its own, which the parent
    collects after the pool has shut down.
    """

    def __init__(self, spool: Path):
        self.owner = os.getpid()
        self.spool = spool
        self.rows: list[tuple] = []

    def reset(self) -> None:
        self.rows = []
        self.spool.mkdir(parents=True, exist_ok=True)
        for f in self.spool.glob("rows-*.jsonl"):
            f.unlink()

    def add(self, row: tuple) -> None:
        if os.getpid() == self.owner:
            self.rows.append(row)
        else:
            with open(self.spool / f"rows-{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(row) + "\n")

    def collect(self) -> list[tuple]:
        rows = list(self.rows)
        for f in sorted(self.spool.glob("rows-*.jsonl")):
            with open(f, encoding="utf-8") as fh:
                rows.extend(tuple(json.loads(line)) for line in fh)
            f.unlink()
        return rows


def _engine_label(policy, kwargs) -> str:
    if isinstance(policy, str) and not kwargs.get("record_events") and not kwargs.get("record_occupancy"):
        return f"engine.{policy}"
    return "engine.general"


def _offers(res) -> int:
    return res.admitted_count + res.dropped_count


def install(recorder: Recorder, tracer: Tracer | None = None):
    """Patch every function in PATCHED; return a function that undoes it."""
    saved = []

    def wrap_run(orig):
        def run(trace, policy, *args, **kwargs):
            if tracer is None:
                res = orig(trace, policy, *args, **kwargs)
            else:
                res = tracer.call(_engine_label(policy, kwargs), orig, (trace, policy) + args, kwargs, count=_offers)
            recorder.add((trace.metadata.get("seed"), res.policy, res.final_slot, res.transmitted_count,
                          res.dropped_count, res.pushout_count, res.admitted_count))
            return res
        return run

    def wrap_oracle(orig):
        def offline_opt_bruteforce(*args, **kwargs):
            if tracer is None:
                res = orig(*args, **kwargs)
            else:
                res = tracer.call("oracle.search", orig, args, kwargs, new_cell=True, count=lambda r: r.explored)
            recorder.add(("oracle", res.throughput, res.explored))
            return res
        return offline_opt_bruteforce

    def wrap_span(name, new_cell):
        def make(orig):
            def wrapper(*args, **kwargs):
                return tracer.call(name, orig, args, kwargs, new_cell=new_cell)
            return wrapper
        return make

    makers = {"run": wrap_run, "offline_opt_bruteforce": wrap_oracle}
    if tracer is not None:
        # a generator or oracle call starts a new cell: a sweep cell, a construction, a micro instance
        makers["gen_mmpp"] = wrap_span("traffic.gen", True)
        makers["gen_adversarial"] = wrap_span("adversarial.gen", True)
        # the scripted-mask replay is a general-path engine run plus a policy set-up
        makers["replay_accept_mask"] = wrap_span("engine.general", False)
        makers["validate_trace"] = wrap_span("trace.validate", False)
    for modname, names in PATCHED.items():
        # the package re-exports the function sweep under the module's name
        mod = sys.modules[modname]
        for attr in names:
            if attr in makers:
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, makers[attr](getattr(mod, attr)))

    def undo():
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)

    return undo
