"""Exact offline optimum for small instances.

The search space is accept/reject decisions only: an offline schedule gains
nothing from admitting a packet it will later evict, since rejecting it at
arrival frees the same space earlier.  Given the decisions, processing is the
forced work-conserving FIFO schedule, so every admitted packet is eventually
transmitted and the optimum is the largest feasible admission set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BufferState
from .engine import _check_entry, run
from .policies import ACCEPT, DROP, NpoPolicy
from .trace import Trace

# cap on the (packet, queue) states visited over a whole search, which bounds
# its work; only two layers are held at once, so memory is the largest layer
_MAX_STATES = 1_000_000


class OracleLimitError(ValueError):
    """Instance exceeds the oracle's state limit."""


@dataclass
class OracleResult:
    throughput: int
    accept_mask: tuple[bool, ...]
    explored: int


def offline_opt_bruteforce(trace: Trace, B: int, C: int = 1) -> OracleResult:
    """Maximise transmitted packets over admission decisions.

    A dynamic program over (next packet index, residual queue contents); the
    slot is implied by the index.  ``explored`` counts the reachable states
    (1 on the empty trace).  Where accepting a packet ties with rejecting it,
    the mask rejects it.  The entry check is ``run``'s: a B or C that is not
    an ``int`` >= 1 raises ``ValueError``, then an invalid trace raises
    :class:`TraceError`.  A search above ``_MAX_STATES`` states raises
    :class:`OracleLimitError` rather than silently truncating.
    """
    _check_entry(trace, B, C)
    slots, works = trace.slots, trace.works
    n = len(slots)

    def advance(queue: tuple[int, ...], nslots: int) -> tuple[int, ...]:
        # work-conserving FIFO: the first min(C, occupancy) residuals each lose
        # one per slot, so the window holds until its smallest residual ends
        while queue and nslots:
            step = min(nslots, *queue[:C])
            head = []
            for r in queue[:C]:
                if r > step:
                    head.append(r - step)
            queue, nslots = (*head, *queue[C:]), nslots - step
        return queue

    # one forward pass: each reachable queue before packet i keeps its best
    # (admissions so far, -mask so far), the mask read as a binary number with
    # packet 0 as its most significant bit.  Paths to the same queue share its
    # future, so the final max is the optimum with its smallest optimal mask
    frontier = {(): (0, 0)}
    stored = 0
    for i in range(n):
        stored += len(frontier)
        if stored > _MAX_STATES:
            raise OracleLimitError(f"search needs more than {_MAX_STATES} states")
        gap = slots[i + 1] - slots[i] if i + 1 < n else 0
        w = (works[i],)
        layer: dict = {}
        for q, (g, m) in frontier.items():
            r, best = advance(q, gap), (g, 2 * m)
            layer[r] = max(layer.get(r, best), best)
            if len(q) < B:
                a, best = advance(q + w, gap), (g + 1, 2 * m - 1)
                layer[a] = max(layer.get(a, best), best)
        frontier = layer
    g, m = max(frontier.values())
    return OracleResult(g, tuple(bool(-m >> j & 1) for j in reversed(range(n))), stored or 1)


class ScriptedAdmissionPolicy(NpoPolicy):
    """Replay a fixed accept/reject mask; npo's FIFO processing.  The engine
    numbers packet i of the trace as id i + 1, so that is its mask entry."""

    name = "scripted"

    def __init__(self, mask):
        self.mask = tuple(mask)

    def on_arrival(self, state: BufferState, packet):
        return ACCEPT if self.mask[packet.id - 1] else DROP


def replay_accept_mask(trace: Trace, mask, B: int, C: int = 1):
    """Run the engine under a scripted admission mask, one flag per packet
    (oracle cross-check); a mask of another length raises ``ValueError``."""
    if len(mask) != trace.packet_count:
        raise ValueError(f"mask has {len(mask)} entries for {trace.packet_count} packets")
    return run(trace, ScriptedAdmissionPolicy(mask), B, C)
