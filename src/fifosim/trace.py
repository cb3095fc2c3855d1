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


def _check_int(name: str, value, least: int = 1, error=ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an ``int`` (``bool`` is not) >= ``least``."""
    if type(value) is not int:
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be >= {least}, got {value!r}")


def validate_trace(trace: Trace) -> list[str]:
    """Return every format violation; an empty list means the trace is usable.

    Checks: declared k an ``int`` >= 0, metadata a ``dict``, both columns a
    ``list`` or ``tuple`` of equal length, ``int`` slots >= 1 and
    non-decreasing, ``int`` works >= 1 and within a declared k.  Never raises.
    """
    errors: list[str] = []
    k = trace.k_declared
    if type(k) is not int or k < 0:
        errors.append(f"declared k must be an integer >= 0, got {k!r}")
        k = 0
    if not isinstance(trace.metadata, dict):
        errors.append(f"metadata must be a dict, got {type(trace.metadata).__name__}")
    if not (isinstance(trace.slots, (list, tuple)) and isinstance(trace.works, (list, tuple))):
        kinds = f"{type(trace.slots).__name__} and {type(trace.works).__name__}"
        return errors + [f"slots and works must be lists or tuples, got {kinds}"]
    if len(trace.slots) != len(trace.works):
        errors.append(f"{len(trace.slots)} slots but {len(trace.works)} works: columns must have equal length")
    prev_slot = 0
    for slot, work in zip(trace.slots, trace.works):
        if type(slot) is not int or type(work) is not int:
            errors.append(f"slot {slot!r} and work {work!r} must be integers")
            continue
        if slot < 1:
            errors.append(f"slot {slot} is not >= 1")
        if slot < prev_slot:
            errors.append(f"slot {slot} follows slot {prev_slot}: slots must be non-decreasing")
        prev_slot = slot
        if work < 1:
            errors.append(f"non-positive work {work} at slot {slot}")
        elif k and work > k:
            errors.append(f"work {work} at slot {slot} exceeds declared k={k}")
    return errors


def _header_fields(record: dict) -> dict:
    """The header's fields after ``k``, in file order: ``record``'s generator,
    params and seed, each defaulted when absent (a fresh ``{}`` for params)."""
    return {"generator": record.get("generator", "unknown"), "params": record.get("params", {}),
            "seed": record.get("seed", 0)}


def write_trace(trace: Trace, path) -> None:
    """Write the trace as JSON lines: one header record, then one packet per line.
    An invalid trace raises :class:`TraceError`, and a header JSON cannot hold
    raises ``TypeError``, before the file is opened."""
    errors = validate_trace(trace)
    if errors:
        raise TraceError("invalid trace: " + "; ".join(errors))
    line = json.dumps({"k": trace.k_declared, **_header_fields(trace.metadata)}) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(line)
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
    _check_int(f"{path}: line {lines[0][0]}: header k", header["k"], 0, TraceError)
    slots: list[int] = []
    works: list[int] = []
    for number, line in lines[1:]:
        rec = _record(path, number, line)
        slot, work = rec.get("slot"), rec.get("work")
        if type(slot) is not int or type(work) is not int:
            raise TraceError(f"{path}: line {number}: packet record needs integer slot and work")
        slots.append(slot)
        works.append(work)
    trace = Trace(slots=slots, works=works, k_declared=header["k"], metadata=_header_fields(header))
    errors = validate_trace(trace)
    if errors:
        raise TraceError(f"{path}: " + "; ".join(errors))
    return trace
