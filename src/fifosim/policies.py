"""The five buffer-management policies as decision functions over BufferState.

Admission returns an :class:`AdmissionDecision`; processing selection returns
packet ids (at most C of them); transmission gating is a per-packet predicate.
The lazy policy carries one piece of cross-phase state (fill vs drain), held
by its engine-facing wrapper class, never by the decision functions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import BufferState, Packet


class UnknownPolicyError(ValueError):
    """Raised for a policy id outside the registry."""


@dataclass(frozen=True)
class AdmissionDecision:
    action: str  # "accept" | "drop" | "pushout"
    victim_id: int | None = None

    @property
    def is_accept(self) -> bool:
        return self.action == "accept"

    @property
    def is_pushout(self) -> bool:
        return self.action == "pushout"


ACCEPT = AdmissionDecision("accept")
DROP = AdmissionDecision("drop")


def push_out(victim_id: int) -> AdmissionDecision:
    return AdmissionDecision("pushout", victim_id)


class LpoMode(enum.Enum):
    """Lazy policy phase: FILL reduces residuals to 1, DRAIN transmits marked packets."""

    FILL = "fill"
    DRAIN = "drain"


def _first_max_residual(queue: list[Packet], exclude: frozenset | set = frozenset()) -> Packet | None:
    """First-from-head packet with maximal residual work, skipping excluded ids."""
    best = None
    for p in queue:
        if p.id in exclude:
            continue
        if best is None or p.residual_work > best.residual_work:
            best = p
    return best


def npo_on_arrival(state: BufferState, packet: Packet) -> AdmissionDecision:
    """Greedy non-push-out admission: accept iff there is space."""
    return ACCEPT if not state.is_full() else DROP


def po_on_arrival(state: BufferState, packet: Packet) -> AdmissionDecision:
    """Greedy admission; on a full buffer, push out the first maximal-residual
    packet iff the arrival needs strictly less work than that residual."""
    if not state.is_full():
        return ACCEPT
    victim = _first_max_residual(state.queue)
    if victim is not None and packet.required_work < victim.residual_work:
        return push_out(victim.id)
    return DROP


def lpo_p_on_arrival(state: BufferState, packet: Packet, in_process) -> AdmissionDecision:
    """Lazy admission that never evicts a packet selected in the most recent
    processing phase; the victim search skips those ids."""
    if not state.is_full():
        return ACCEPT
    victim = _first_max_residual(state.queue, exclude=in_process)
    if victim is not None and packet.required_work < victim.residual_work:
        return push_out(victim.id)
    return DROP


def po_select_processing(state: BufferState, cores: int) -> list[int]:
    """FIFO processing: the first min(C, occupancy) packets."""
    return [p.id for p in state.queue[: min(cores, len(state.queue))]]


def lpo_select_processing(state: BufferState, mode: LpoMode, cores: int) -> tuple[list[int], bool, LpoMode]:
    """Select packets for the lazy policy and advance its phase.

    Evaluated at the start of the processing phase.  A finished drain reverts
    to fill; a fill in which every buffered packet is down to one residual
    cycle marks the whole buffer and enters drain.  Fill selects the first
    packets with residual > 1 (transmission gate closed: nothing is driven
    below one cycle); drain selects the first marked packets and opens the
    gate for marked packets only.

    Returns (selected ids, gate open for marked packets, next mode).
    """
    queue = state.queue
    if mode is LpoMode.DRAIN and not any(p.marked for p in queue):
        mode = LpoMode.FILL
    if mode is LpoMode.FILL and queue and all(p.residual_work == 1 for p in queue):
        for p in queue:
            p.marked = True
        mode = LpoMode.DRAIN
    if mode is LpoMode.DRAIN:
        ids = [p.id for p in queue if p.marked][:cores]
        return ids, True, LpoMode.DRAIN
    ids = [p.id for p in queue if p.residual_work > 1][:cores]
    return ids, False, LpoMode.FILL


def srpt_select_processing(state: BufferState, cores: int) -> list[int]:
    """Shortest-residual-first selection, earliest admission breaking ties."""
    queue = state.queue
    order = sorted(range(len(queue)), key=lambda i: (queue[i].residual_work, i))
    return [queue[i].id for i in order[: min(cores, len(queue))]]


class Policy:
    """Engine-facing wrapper; one instance per run (may hold cross-phase state)."""

    name = "?"

    def on_arrival(self, state: BufferState, packet: Packet) -> AdmissionDecision:
        raise NotImplementedError

    def select_processing(self, state: BufferState, cores: int) -> list[int]:
        raise NotImplementedError

    def may_transmit(self, state: BufferState, packet: Packet) -> bool:
        return True

    def note_processed(self, ids: list[int]) -> None:
        pass


class NpoPolicy(Policy):
    name = "npo"

    def on_arrival(self, state, packet):
        return npo_on_arrival(state, packet)

    def select_processing(self, state, cores):
        return po_select_processing(state, cores)


class PoPolicy(Policy):
    name = "po"

    def on_arrival(self, state, packet):
        return po_on_arrival(state, packet)

    def select_processing(self, state, cores):
        return po_select_processing(state, cores)


class LpoPolicy(Policy):
    name = "lpo"

    def __init__(self):
        self.mode = LpoMode.FILL
        self._gate_open = False

    def on_arrival(self, state, packet):
        return po_on_arrival(state, packet)  # same rule in fill and drain

    def select_processing(self, state, cores):
        ids, gate, self.mode = lpo_select_processing(state, self.mode, cores)
        self._gate_open = gate
        return ids

    def may_transmit(self, state, packet):
        return self._gate_open and packet.marked


class LpoPPolicy(LpoPolicy):
    name = "lpo_p"

    def __init__(self):
        super().__init__()
        self.in_process: set[int] = set()

    def on_arrival(self, state, packet):
        return lpo_p_on_arrival(state, packet, self.in_process)

    def note_processed(self, ids):
        self.in_process = set(ids)


class SrptPolicy(Policy):
    """Push-out reference: shortest-residual processing, not FIFO-constrained."""

    name = "srpt"

    def on_arrival(self, state, packet):
        return po_on_arrival(state, packet)

    def select_processing(self, state, cores):
        return srpt_select_processing(state, cores)


POLICY_IDS = ("npo", "po", "lpo", "lpo_p", "srpt")

_REGISTRY = {
    "npo": NpoPolicy,
    "po": PoPolicy,
    "lpo": LpoPolicy,
    "lpo_p": LpoPPolicy,
    "srpt": SrptPolicy,
}


def make_policy(policy) -> Policy:
    """Instantiate a policy from its id, or pass a ready instance through."""
    if isinstance(policy, Policy):
        return policy
    try:
        return _REGISTRY[policy]()
    except KeyError:
        raise UnknownPolicyError(
            f"unknown policy id {policy!r}; expected one of {', '.join(POLICY_IDS)}"
        ) from None
