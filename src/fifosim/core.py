"""Buffer-state domain objects and per-run accounting."""

from __future__ import annotations

from dataclasses import dataclass, field


class SimulationError(RuntimeError):
    """Raised when the engine detects an internal invariant violation."""


@dataclass(slots=True)
class Packet:
    """A unit-size packet: total required work and the work still owed.

    ``marked`` is the lazy policy's drain membership flag; it stays False
    under every other policy.
    """

    id: int
    arrival_slot: int
    required_work: int
    residual_work: int
    marked: bool = False


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
    """Counters for one run; event log and occupancy series are opt-in."""

    policy: str
    buffer_size: int
    cores: int
    final_slot: int
    transmitted_count: int
    dropped_count: int
    pushout_count: int
    admitted_count: int
    events: list[SlotEvents] | None = None
    occupancy_series: list[int] | None = None
