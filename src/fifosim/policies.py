"""The five buffer-management policies, each one :class:`Policy` subclass.

Admission answers ``ACCEPT``, ``DROP`` or ``push_out(victim_id)``; processing
selection answers a list or tuple of at most C packet ids, and the engine
raises :class:`SimulationError` on anything else.  Every zero-residual packet
leaves in the transmission phase, so a policy controls departures through
selection alone.  The lazy policies keep their cross-phase state (the ids
being drained, and for lpo_p the last selection) on the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import BufferState, Packet


class UnknownPolicyError(ValueError):
    """Raised for a policy id outside the registry."""


# the two answers that carry no data, told apart by identity
ACCEPT, DROP = Enum("Admission", "ACCEPT DROP")


@dataclass(frozen=True)
class AdmissionDecision:
    """The third answer: admit the arrival by evicting packet ``victim_id``."""

    victim_id: int


def push_out(victim_id: int) -> AdmissionDecision:
    return AdmissionDecision(victim_id)


class Policy:
    """Engine-facing policy; one instance per run (may hold cross-phase state).

    ``name`` labels the result and the engine's refusals; a subclass that
    sets none, and inherits none, is named after its class.
    """

    name: str

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if not hasattr(cls, "name"):
            cls.name = cls.__name__

    def on_arrival(self, state: BufferState, packet: Packet):
        raise NotImplementedError

    def select_processing(self, state: BufferState, cores: int) -> list[int]:
        raise NotImplementedError


class NpoPolicy(Policy):
    """Greedy non-push-out admission, FIFO processing."""

    name = "npo"

    def on_arrival(self, state, packet):
        """Accept iff there is space."""
        return DROP if state.is_full() else ACCEPT

    def select_processing(self, state, cores):
        """The first min(C, occupancy) packets."""
        ids = []
        for p in state.queue[:cores]:
            ids.append(p.id)
        return ids


class PoPolicy(NpoPolicy):
    """Greedy push-out admission, FIFO processing."""

    name = "po"
    spared: frozenset[int] | set[int] = frozenset()  # ids the victim search skips (lpo_p only)

    def on_arrival(self, state, packet):
        """Accept iff there is space; on a full buffer, push out the first
        maximal-residual packet iff the arrival needs strictly less work."""
        if not state.is_full():
            return ACCEPT
        victim = None
        for p in state.queue:
            if p.id not in self.spared and (victim is None or p.residual_work > victim.residual_work):
                victim = p
        if victim is not None and packet.residual_work < victim.residual_work:
            return push_out(victim.id)
        return DROP


class LpoPolicy(PoPolicy):
    """Lazy push-out: fill grinds residuals down to one cycle, then the whole
    buffer is marked and drained.  Admission is po's in both phases; a marked
    packet has one cycle left, so no arrival undercuts it as a victim."""

    name = "lpo"

    def __init__(self):
        self.draining: set[int] = set()  # marked ids not yet selected

    def select_processing(self, state, cores):
        """Fill selects the first packets with residual > 1.  When every
        buffered packet is down to one cycle, the buffer is marked and drain
        selects the first marked packets, never an unmarked one; fill resumes
        once every marked packet has left."""
        queue, ids = state.queue, []
        if not self.draining and queue and all(p.residual_work == 1 for p in queue):
            self.draining = {p.id for p in queue}
        draining = self.draining
        for p in queue:
            if (p.id in draining) if draining else (p.residual_work > 1):
                ids.append(p.id)
                if len(ids) == cores:
                    break
        draining.difference_update(ids)  # one cycle left: they leave this slot
        return ids


class LpoPPolicy(LpoPolicy):
    """Lazy push-out that never evicts a packet selected in the most recent
    processing phase."""

    name = "lpo_p"

    def select_processing(self, state, cores):
        ids = super().select_processing(state, cores)
        self.spared = set(ids)
        return ids


class SrptPolicy(PoPolicy):
    """Push-out reference: shortest-residual processing, not FIFO-constrained."""

    name = "srpt"

    def select_processing(self, state, cores):
        """The C smallest residuals; the stable sort breaks ties by admission order."""
        ids = []
        for p in sorted(state.queue, key=lambda p: p.residual_work)[:cores]:
            ids.append(p.id)
        return ids


_REGISTRY = {
    "npo": NpoPolicy,
    "po": PoPolicy,
    "lpo": LpoPolicy,
    "lpo_p": LpoPPolicy,
    "srpt": SrptPolicy,
}
POLICY_IDS = tuple(_REGISTRY)


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
