"""Arrival traces and their JSON-lines file format."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator


class TraceError(ValueError):
    """Raised when a trace fails validation before simulation starts."""


@dataclass
class Trace:
    """Time-ordered arrival events.

    ``events`` is a list of ``(slot, works)`` pairs with slots
    non-decreasing; each entry lists the required work of the packets
    arriving in that slot, in offer order.  ``k_declared`` is the declared
    upper bound on work (0 means undeclared).
    """

    events: list[tuple[int, list[int]]]
    k_declared: int = 0
    metadata: dict = field(default_factory=dict)

    @property
    def packet_count(self) -> int:
        return sum(len(works) for _, works in self.events)

    def packets(self) -> Iterator[tuple[int, int]]:
        """Yield (slot, work) per packet, in arrival order."""
        for slot, works in self.events:
            for work in works:
                yield slot, work

    def max_work(self) -> int:
        return max((w for _, works in self.events for w in works), default=0)


def validate_trace(trace: Trace) -> list[str]:
    """Return every format violation; an empty list means the trace is usable.

    Checks: slots >= 1 and non-decreasing, works >= 1, and works within the
    declared k when one is declared.  Never raises.
    """
    errors: list[str] = []
    prev_slot = 0
    for slot, works in trace.events:
        if slot < 1:
            errors.append(f"slot {slot} is not >= 1")
        if slot < prev_slot:
            errors.append(f"slot {slot} follows slot {prev_slot}: slots must be non-decreasing")
        prev_slot = max(prev_slot, slot)
        for work in works:
            if work < 1:
                errors.append(f"non-positive work {work} at slot {slot}")
            elif trace.k_declared and work > trace.k_declared:
                errors.append(f"work {work} at slot {slot} exceeds declared k={trace.k_declared}")
    return errors


def merge_events(pairs: Iterator[tuple[int, int]]) -> list[tuple[int, list[int]]]:
    """Group (slot, work) pairs, non-decreasing in slot, into trace events."""
    events: list[tuple[int, list[int]]] = []
    for slot, work in pairs:
        if events and events[-1][0] == slot:
            events[-1][1].append(work)
        else:
            events.append((slot, [work]))
    return events


def write_trace(trace: Trace, path) -> None:
    """Write the trace as JSON lines: one header record, then one packet per line."""
    meta = trace.metadata
    header = {
        "k": trace.k_declared,
        "generator": meta.get("generator", "unknown"),
        "params": meta.get("params", {}),
        "seed": meta.get("seed", 0),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for slot, work in trace.packets():
            fh.write('{"slot": %d, "work": %d}\n' % (slot, work))


def _record(path, number: int, line: str) -> dict:
    try:
        rec = json.loads(line)
    except ValueError:
        rec = None
    if not isinstance(rec, dict):
        raise TraceError(f"{path}: line {number}: not a JSON object")
    return rec


def read_trace(path) -> Trace:
    """Read a JSON-lines trace file written by :func:`write_trace`.

    A line that is not a JSON object, a packet record without integer
    ``slot`` and ``work``, or an invalid trace raises :class:`TraceError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(number, line) for number, line in enumerate(fh, 1) if line.strip()]
    if not lines:
        raise TraceError(f"{path}: empty trace file (missing header record)")
    header = _record(path, *lines[0])
    if "k" not in header:
        raise TraceError(f"{path}: first record is not a trace header")
    pairs = []
    for number, line in lines[1:]:
        rec = _record(path, number, line)
        try:
            pairs.append((int(rec["slot"]), int(rec["work"])))
        except (KeyError, TypeError, ValueError):
            raise TraceError(f"{path}: line {number}: packet record needs integer slot and work") from None
    trace = Trace(
        events=merge_events(iter(pairs)),
        k_declared=int(header["k"]),
        metadata={
            "generator": header.get("generator", "unknown"),
            "params": header.get("params", {}),
            "seed": header.get("seed", 0),
        },
    )
    errors = validate_trace(trace)
    if errors:
        raise TraceError(f"{path}: " + "; ".join(errors))
    return trace
