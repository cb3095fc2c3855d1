"""Deterministic slotted-time engine.

Each slot runs three phases: (i) arrivals, offered to the policy one at a
time in trace order; (ii) processing, the policy selects at most C packets
and each selected packet loses one residual cycle; (iii) transmission,
every zero-residual packet leaves, in queue order.  The engine keeps running
drain slots past the last arrival until the buffer empties, so throughput
counts everything the policy would deliver.

``run`` dispatches a registry id to one of two fast loops (counters only)
unless an event log was requested: an eager loop for npo, po and srpt, and a
lazy loop for lpo and lpo_p.  srpt's counts depend only on the multiset of
residuals, so its fast loop is po on a queue kept in ascending order, where
the FIFO head is the C smallest residuals.

Both fast loops step by one rule: before the first offer in slot ``s`` they
process the slots up to ``s - 1`` while the buffer holds anything, and a
sentinel arrival in slot infinity drains it.  A window of one packet,
``min(C, len(q)) == 1`` and so every window at C = 1, runs to that packet's
end or to slot ``s`` in one step, and so does a lazy drain; a wider window
takes a step per slot.  The lazy loop keeps only the residuals above one in
its queue and counts the one-cycle packets, ``ones`` unmarked and ``m``
marked: fill never selects one, no push-out evicts one (a victim's residual
exceeds the arrival's work, which is at least 1), and drain treats them all
alike.  lpo_p spares ``q[:p]``, the ``p`` packets of the last fill still
above one cycle.  Both loops keep a bound ``top >= max(q)``, raised only by
an admission, so an arrival at or above it is dropped without a scan.  Every
admitted packet leaves or is pushed out, so a loop counts transmissions as
admitted minus pushed out.  Both loops and the general path walk the trace's
packet-aligned ``slots``/``works`` columns directly; the general path numbers
packet ``i`` of the trace as id ``i + 1``.  Both paths produce identical
counts.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

from .policies import ACCEPT, DROP, AdmissionDecision, BufferState, Packet, make_policy
from .trace import Trace, TraceError, _check_int, validate_trace


class SimulationError(RuntimeError):
    """Raised when the engine detects an internal invariant violation."""


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


def run(
    trace: Trace,
    policy,
    buffer_size: int,
    cores: int,
    *,
    record_events: bool = False,
    validate: bool = True,
) -> SimulationResult:
    """Simulate one policy over one trace and return its accounting.

    ``policy`` is a registry id or a :class:`Policy` instance.  Identical
    inputs produce identical results, event logs included.  A buffer size B or
    core count C that is not an ``int`` >= 1 raises ``ValueError``, then an
    invalid trace raises :class:`TraceError` unless ``validate`` is false.
    """
    _check_entry(trace, buffer_size, cores, validate)
    # a @dataclass Policy is unhashable, so only a str is looked up
    if isinstance(policy, str) and policy in _FAST_LOOPS and not record_events:
        counts = _FAST_LOOPS[policy](trace.slots, trace.works, buffer_size, cores)
        return SimulationResult(policy, *counts)
    return _run_general(trace, policy, buffer_size, cores, record_events)


def _check_entry(trace, B, C, validate=True) -> None:
    """Entry check of ``run`` and the oracle: B and C each an ``int`` >= 1, then the trace."""
    _check_int("B", B)
    _check_int("C", C)
    errors = validate_trace(trace) if validate else None
    if errors:
        raise TraceError("invalid trace: " + "; ".join(errors))


def _run_general(trace, policy, buffer_size, cores, record_events):
    pol = make_policy(policy)
    name, on_arrival, select = pol.name, pol.on_arrival, pol.select_processing
    state = BufferState(capacity=buffer_size)
    queue = state.queue
    slots, works = trace.slots, trace.works
    n = len(slots)
    i = 0
    admitted = dropped = pushed = transmitted = 0
    t = 0
    log: list[SlotEvents] | None = [] if record_events else None

    while True:
        if queue:
            t += 1
        elif i < n:
            t = slots[i]
        else:
            break
        slot_ev = SlotEvents(slot=t) if record_events else None

        # phase (i): arrivals, one offer at a time
        while i < n and slots[i] == t:
            w = works[i]
            i += 1
            pkt = Packet(i, w)
            decision = on_arrival(state, pkt)
            if decision is ACCEPT:
                if state.is_full():
                    raise SimulationError(f"{name}: accept with a full buffer at slot {t}")
                queue.append(pkt)
                admitted += 1
                if slot_ev:
                    slot_ev.admitted.append(pkt.id)
            elif decision is DROP:
                dropped += 1
                if slot_ev:
                    slot_ev.dropped_on_arrival.append(pkt.id)
            elif not isinstance(decision, AdmissionDecision):
                raise SimulationError(f"{name}: on_arrival answered {decision!r} at slot {t}")
            else:
                for victim in queue:
                    if victim.id == decision.victim_id:
                        break
                else:
                    raise SimulationError(f"{name}: push-out of unknown packet {decision.victim_id} at slot {t}")
                if victim.residual_work <= w:
                    # push-out must strictly reduce total residual work
                    raise SimulationError(
                        f"{name}: push-out of residual {victim.residual_work} for work {w} at slot {t}"
                    )
                queue.remove(victim)
                queue.append(pkt)
                admitted += 1
                pushed += 1
                if slot_ev:
                    slot_ev.pushed_out.append((victim.id, pkt.id))
                    slot_ev.admitted.append(pkt.id)

        # phase (ii): processing
        selected = select(state, cores)
        if not isinstance(selected, (list, tuple)):
            raise SimulationError(f"{name}: select_processing answered {selected!r} at slot {t}")
        if len(selected) > cores:
            raise SimulationError(f"{name}: selected {len(selected)} > C={cores} at slot {t}")
        found: list[Packet] = []
        for pid in selected:
            # a scan, not a dict: a policy's id need not be hashable
            for pkt in queue:
                if pkt.id == pid:
                    break
            else:
                raise SimulationError(f"{name}: selected unknown packet {pid} at slot {t}")
            for other in found:
                if other is pkt:
                    raise SimulationError(f"{name}: packet {pid} selected twice at slot {t}")
            if pkt.residual_work <= 0:
                raise SimulationError(f"{name}: packet {pid} selected at zero residual at slot {t}")
            pkt.residual_work -= 1
            found.append(pkt)
        if slot_ev:
            slot_ev.processed.extend(selected)

        # phase (iii): transmission of every zero residual, selected or not
        if selected:
            kept = []
            for p in queue:
                if p.residual_work == 0:
                    transmitted += 1
                    if slot_ev:
                        slot_ev.transmitted.append(p.id)
                else:
                    kept.append(p)
            if len(kept) != len(queue):
                queue[:] = kept
        elif queue and i >= n:
            raise SimulationError(f"{name}: no progress with {len(queue)} packets queued at slot {t}")

        if log is not None:
            log.append(slot_ev)

    if admitted != transmitted + pushed:
        raise SimulationError(
            f"{name}: conservation violated "
            f"(admitted {admitted} != transmitted {transmitted} + pushed out {pushed})"
        )
    return SimulationResult(name, t, transmitted, dropped, pushed, admitted, log)


# ---------------------------------------------------------------------------
# Fast loops: counters only, no Packet objects.  The queue is a plain list of
# residuals (head at index 0), less, in the lazy loop, the one-cycle packets
# (counted in ones and m).  Admission order equals list order because
# arrivals append at the tail, except on srpt's ascending queue, where order
# does not matter to the counts.  Only an admission raises a residual, so
# top >= max(q) holds with no invalidation; a full-buffer arrival below top
# recomputes it exactly.  t is the next slot to process; once the _DRAIN
# sentinel (s = _END, never a trace's slot) finds the buffer empty, the last
# slot processed is t - 1, or 0 for an empty trace.  A step's tests read
# r > s - t, never r + t - s, which is nan at s = inf.  Per-slot work is an
# explicit loop over the queue in place, never a comprehension: before
# Python 3.12 (PEP 709) each one runs in a function frame of its own, which
# costs more than a short loop.

_END = float("inf")
_DRAIN = ((_END, 0),)


def _fast_eager(slots, works, B, C, pushout, ordered):
    # npo, po and srpt.  srpt is po on a queue kept ascending (ordered): a
    # push-out evicts a maximal residual, and the head is the smallest.
    q: list[int] = []
    place = partial(insort, q) if ordered else q.append
    admitted = dropped = pushed = top = 0
    t = 1
    for s, w in chain(zip(slots, works), _DRAIN):
        while t < s:
            if q:
                h = C if C < len(q) else len(q)
                if h == 1:
                    r = q[0]
                    if r > s - t:
                        q[0] = r - (s - t)
                        t = s
                    else:
                        del q[0]
                        t += r
                else:
                    # the first h packets lose a cycle, in place; a finished
                    # packet leaves at once, the next one slides into position
                    # j, and h shrinks so the window still ends where it
                    # began.  Decrementing srpt's head keeps its queue sorted.
                    j = 0
                    while j < h:
                        r = q[j] - 1
                        if r:
                            q[j] = r
                            j += 1
                        else:
                            del q[j]
                            h -= 1
                    t += 1
            elif s < _END:
                t = s
            else:
                return t - 1, admitted - pushed, dropped, pushed, admitted
        if len(q) < B:
            place(w)
            admitted += 1
            if w > top:
                top = w
        elif pushout and w < top:
            top = mx = q[-1] if ordered else max(q)
            if w < mx:
                if ordered:
                    q.pop()
                else:
                    q.remove(mx)
                place(w)
                admitted += 1
                pushed += 1
            else:
                dropped += 1
        else:
            dropped += 1


def _fast_lazy(slots, works, B, C, spare):
    # lpo and lpo_p.  q holds the residuals above one, in admission order; the
    # one-cycle packets are counted, unmarked in ones and marked in m.  m > 0
    # means drain mode, and drained packets leave in their slot.  lpo_p spares
    # q[:p], the packets the last fill processed that are still above one:
    # arrivals join the tail and victims (residual > w >= 1) lie in q[p:].
    q: list[int] = []
    ones = m = p = 0
    admitted = dropped = pushed = top = 0
    t = 1
    for s, w in chain(zip(slots, works), _DRAIN):
        while t < s:
            if m:
                d = -(-m // C)  # drain slots left
                if d <= s - t:
                    t += d
                    m = 0
                else:
                    m -= C * (s - t)
                    t = s
            elif q:
                # fill: the first min(C, len(q)) residuals lose a cycle, and
                # one that reaches one cycle leaves q for ones
                h = C if C < len(q) else len(q)
                if h == 1:
                    r = q[0]
                    if r - 1 <= s - t:
                        t += r - 1
                        del q[0]
                        ones += 1
                        p = 0
                    else:
                        q[0] = r - (s - t)
                        t = s
                        if spare:
                            p = 1
                else:
                    j = 0
                    while j < h:
                        r = q[j] - 1
                        if r > 1:
                            q[j] = r
                            j += 1
                        else:
                            del q[j]
                            h -= 1
                            ones += 1
                    if spare:
                        p = h
                    t += 1
            elif ones:
                m = ones  # everything at one cycle: mark all, drain
                ones = 0
            elif s < _END:
                t = s
            else:
                return t - 1, admitted - pushed, dropped, pushed, admitted
        if len(q) + ones + m >= B:
            if not q or w >= top or w >= (top := max(q)):
                dropped += 1
                continue
            v = q.index(top)
            if v < p:
                mx = max(q[p:], default=0)  # the first maximum is spared
                if w >= mx:
                    dropped += 1
                    continue
                v = q.index(mx, p)
            del q[v]
            pushed += 1
        admitted += 1
        if w > 1:
            q.append(w)
            if w > top:
                top = w
        else:
            ones += 1


_FAST_LOOPS = {
    "npo": partial(_fast_eager, pushout=False, ordered=False),
    "po": partial(_fast_eager, pushout=True, ordered=False),
    "srpt": partial(_fast_eager, pushout=True, ordered=True),
    "lpo": partial(_fast_lazy, spare=False),
    "lpo_p": partial(_fast_lazy, spare=True),
}
