"""Buffer-state domain objects and per-run accounting."""

from __future__ import annotations

from dataclasses import dataclass, field


class SimulationError(RuntimeError):
    """Raised when the engine detects an internal invariant violation."""


@dataclass(slots=True)
class Packet:
    """A unit-size packet and the processing cycles it still owes; an arriving
    packet owes its whole required work."""

    id: int
    residual_work: int


@dataclass
class BufferState:
    """FIFO queue (index 0 = head-of-line, last = most recent admission)."""

    capacity: int
    queue: list[Packet] = field(default_factory=list)

    def is_full(self) -> bool:
        return len(self.queue) >= self.capacity


@dataclass
class SlotEvents:
    """What happened in a single slot, phase by phase."""

    slot: int
    admitted: list[int] = field(default_factory=list)
    dropped_on_arrival: list[int] = field(default_factory=list)
    pushed_out: list[tuple[int, int]] = field(default_factory=list)  # (victim, incoming)
    processed: list[int] = field(default_factory=list)
    transmitted: list[int] = field(default_factory=list)


@dataclass
class SimulationResult:
    """Counters for one run; the buffer size and core count are the caller's
    own arguments to ``run``.  The event log is opt-in."""

    policy: str
    final_slot: int
    transmitted_count: int
    dropped_count: int
    pushout_count: int
    admitted_count: int
    events: list[SlotEvents] | None = None
