"""Brute-force offline optimum for micro instances.

The search space is accept/reject decisions only: an offline schedule gains
nothing from admitting a packet it will later evict, since rejecting it at
arrival frees the same space earlier.  Given the decisions, processing is the
forced work-conserving FIFO schedule, so every admitted packet is eventually
transmitted and the optimum is the largest feasible admission set.  A debug
flag widens the search with per-arrival eviction choices to let tests confirm
the restriction loses nothing on micro instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BufferState
from .engine import run
from .policies import ACCEPT, DROP, Policy, po_select_processing
from .trace import Trace


class OracleLimitError(ValueError):
    """Instance exceeds the oracle's exhaustive-search limits."""


@dataclass
class OracleResult:
    throughput: int
    accept_mask: tuple[bool, ...] | None
    explored: int


def offline_opt_bruteforce(
    trace: Trace,
    B: int,
    C: int = 1,
    *,
    max_packets: int = 14,
    allow_pushout: bool = False,
) -> OracleResult:
    """Exhaustively maximise transmitted packets over admission decisions.

    Memoised on (next packet index, residual queue contents); the slot is
    implied by the index.  Refuses instances above ``max_packets`` rather
    than silently truncating.  With ``allow_pushout`` the search may also
    admit into a full buffer by evicting any one resident packet (slower;
    no accept mask is reconstructed in that mode).
    """
    slots, works = trace.slots, trace.works
    n = len(slots)
    if n > max_packets:
        raise OracleLimitError(
            f"instance has {n} packets, above the exhaustive-search limit {max_packets}"
        )
    if B < 1 or C < 1:
        raise ValueError("B and C must be >= 1")
    if n == 0:
        return OracleResult(0, (), 1)

    def advance(queue: tuple[int, ...], nslots: int) -> tuple[int, ...]:
        q = list(queue)
        for _ in range(nslots):
            if not q:
                break
            j = C if C < len(q) else len(q)
            keep = []
            for idx, r in enumerate(q):
                r = r - 1 if idx < j else r
                if r:
                    keep.append(r)
            q = keep
        return tuple(q)

    memo: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {}

    def best(i: int, queue: tuple[int, ...]) -> int:
        # value = transmissions gained by decisions on packets i..n-1; every
        # admitted-and-never-evicted packet transmits, so an accept counts 1
        # and an accept-by-eviction nets 0 (the victim's earlier 1 is undone)
        if i == n:
            return 0
        key = (i, queue)
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        gap = slots[i + 1] - slots[i] if i + 1 < n else 0

        def settle(q_after: tuple[int, ...]) -> int:
            return best(i + 1, advance(q_after, gap) if gap else q_after)

        value = settle(queue)
        choice = -1  # reject
        if len(queue) < B:
            v = 1 + settle(queue + (works[i],))
            if v > value:
                value, choice = v, n  # plain accept marker
        elif allow_pushout:
            for victim in range(len(queue)):
                q2 = queue[:victim] + queue[victim + 1 :] + (works[i],)
                v = settle(q2)
                if v > value:
                    value, choice = v, victim
        memo[key] = (value, choice)
        return value

    throughput = best(0, ())
    mask = None
    if not allow_pushout:
        decided = []
        queue: tuple[int, ...] = ()
        for i in range(n):
            choice = memo[(i, queue)][1]
            decided.append(choice == n)
            if choice == n:
                queue = queue + (works[i],)
            if i + 1 < n and slots[i + 1] > slots[i]:
                queue = advance(queue, slots[i + 1] - slots[i])
        mask = tuple(decided)
    return OracleResult(throughput, mask, len(memo))


class ScriptedAdmissionPolicy(Policy):
    """Replay a fixed accept/reject mask; FIFO processing, open gate."""

    name = "scripted"

    def __init__(self, mask):
        self.mask = tuple(mask)
        self._next = 0

    def on_arrival(self, state: BufferState, packet):
        i = self._next
        self._next += 1
        if i < len(self.mask) and self.mask[i]:
            return ACCEPT
        return DROP

    def select_processing(self, state, cores):
        return po_select_processing(state, cores)


def replay_accept_mask(trace: Trace, mask, B: int, C: int = 1):
    """Run the engine under a scripted admission mask (oracle cross-check)."""
    return run(trace, ScriptedAdmissionPolicy(mask), B, C)
