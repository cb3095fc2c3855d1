"""Arrival traces and their JSON-lines file format."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


class TraceError(ValueError):
    """Raised when a trace fails validation before simulation starts."""


@dataclass
class Trace:
    """Packet arrivals in offer order.

    ``slots[i]`` and ``works[i]`` are the arrival slot and the required work
    of packet ``i``; the two lists have equal length and slots are
    non-decreasing.  Packets sharing a slot are offered in list order.
    ``k_declared`` is the declared upper bound on work (0 means undeclared).
    """

    slots: list[int]
    works: list[int]
    k_declared: int = 0
    metadata: dict = field(default_factory=dict)

    @property
    def packet_count(self) -> int:
        return len(self.slots)


def validate_trace(trace: Trace) -> list[str]:
    """Return every format violation; an empty list means the trace is usable.

    Checks: equal column lengths, slots >= 1 and non-decreasing, works >= 1,
    and works within the declared k when one is declared.  Never raises.
    """
    errors: list[str] = []
    if len(trace.slots) != len(trace.works):
        errors.append(f"{len(trace.slots)} slots but {len(trace.works)} works: columns must have equal length")
    prev_slot = 0
    for slot, work in zip(trace.slots, trace.works):
        if slot < 1:
            errors.append(f"slot {slot} is not >= 1")
        if slot < prev_slot:
            errors.append(f"slot {slot} follows slot {prev_slot}: slots must be non-decreasing")
        prev_slot = max(prev_slot, slot)
        if work < 1:
            errors.append(f"non-positive work {work} at slot {slot}")
        elif trace.k_declared and work > trace.k_declared:
            errors.append(f"work {work} at slot {slot} exceeds declared k={trace.k_declared}")
    return errors


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
        for slot, work in zip(trace.slots, trace.works):
            fh.write('{"slot": %d, "work": %d}\n' % (slot, work))


def _record(path, number: int, line: str) -> dict:
    try:
        rec = json.loads(line)
    except ValueError:
        rec = None
    if not isinstance(rec, dict):
        raise TraceError(f"{path}: line {number}: not a JSON object")
    return rec


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def read_trace(path) -> Trace:
    """Read a JSON-lines trace file written by :func:`write_trace`.

    A file that is not UTF-8 text, a line that is not a JSON object, a header
    without a non-negative integer ``k``, a packet record without integer
    ``slot`` and ``work``, or an invalid trace raises :class:`TraceError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(number, line) for number, line in enumerate(fh, 1) if line.strip()]
    except UnicodeDecodeError as exc:
        raise TraceError(f"{path}: not UTF-8 text ({exc})") from None
    if not lines:
        raise TraceError(f"{path}: empty trace file (missing header record)")
    header = _record(path, *lines[0])
    if "k" not in header:
        raise TraceError(f"{path}: first record is not a trace header")
    k = header["k"]
    if not _is_int(k) or k < 0:
        raise TraceError(f"{path}: line {lines[0][0]}: header k must be a non-negative integer")
    slots: list[int] = []
    works: list[int] = []
    for number, line in lines[1:]:
        rec = _record(path, number, line)
        slot, work = rec.get("slot"), rec.get("work")
        if not (_is_int(slot) and _is_int(work)):
            raise TraceError(f"{path}: line {number}: packet record needs integer slot and work")
        slots.append(slot)
        works.append(work)
    trace = Trace(
        slots=slots,
        works=works,
        k_declared=k,
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
