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
the FIFO head is the C smallest residuals.  lpo_p's victim is the first maximum
at or after a bound ``s``: everything before ``s`` was processed in the last
fill phase or has one cycle left, which no arrival's work undercuts.  Both
loops keep a bound ``top >= max(q)``, raised only by an admission, so an
arrival at or above it is dropped without a scan; the lazy loop's first ``f``
packets are at one cycle, so fill and the victim search start at ``f``.  Both
loops and the general path walk the trace's packet-aligned ``slots``/``works``
columns directly; the general path numbers packet ``i`` of the trace as id
``i + 1``.  Both paths produce identical counts.
"""

from __future__ import annotations

from bisect import insort
from functools import partial

from .core import BufferState, Packet, SimulationResult, SlotEvents, SimulationError
from .policies import ACCEPT, DROP, AdmissionDecision, make_policy
from .trace import Trace, TraceError, validate_trace


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
    inputs produce identical results, event logs included.
    """
    if buffer_size < 1:
        raise ValueError(f"buffer_size must be >= 1, got {buffer_size}")
    if cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores}")
    if validate:
        errors = validate_trace(trace)
        if errors:
            raise TraceError("invalid trace: " + "; ".join(errors))
    # a @dataclass Policy is unhashable, so only a str is looked up
    if isinstance(policy, str) and policy in _FAST_LOOPS and not record_events:
        counts = _FAST_LOOPS[policy](trace.slots, trace.works, buffer_size, cores)
        return SimulationResult(policy, *counts)
    return _run_general(trace, policy, buffer_size, cores, record_events)


def _run_general(trace, policy, buffer_size, cores, record_events):
    pol = make_policy(policy)
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
            decision = pol.on_arrival(state, pkt)
            if decision is ACCEPT:
                if state.is_full():
                    raise SimulationError(f"{pol.name}: accept with a full buffer at slot {t}")
                queue.append(pkt)
                admitted += 1
                if slot_ev:
                    slot_ev.admitted.append(pkt.id)
            elif decision is DROP:
                dropped += 1
                if slot_ev:
                    slot_ev.dropped_on_arrival.append(pkt.id)
            elif not isinstance(decision, AdmissionDecision):
                raise SimulationError(f"{pol.name}: on_arrival answered {decision!r} at slot {t}")
            else:
                victim = next((p for p in queue if p.id == decision.victim_id), None)
                if victim is None:
                    raise SimulationError(
                        f"{pol.name}: push-out of unknown packet {decision.victim_id} at slot {t}"
                    )
                if victim.residual_work <= w:
                    # push-out must strictly reduce total residual work
                    raise SimulationError(
                        f"{pol.name}: push-out of residual {victim.residual_work} for work {w} at slot {t}"
                    )
                queue.remove(victim)
                queue.append(pkt)
                admitted += 1
                pushed += 1
                if slot_ev:
                    slot_ev.pushed_out.append((victim.id, pkt.id))
                    slot_ev.admitted.append(pkt.id)

        # phase (ii): processing
        selected = pol.select_processing(state, cores)
        if not isinstance(selected, (list, tuple)):
            raise SimulationError(f"{pol.name}: select_processing answered {selected!r} at slot {t}")
        if len(selected) > cores:
            raise SimulationError(f"{pol.name}: selected {len(selected)} > C={cores} at slot {t}")
        found: list[Packet] = []
        for pid in selected:
            # a scan, not a dict: a policy's id need not be hashable
            pkt = next((p for p in queue if p.id == pid), None)
            if pkt is None:
                raise SimulationError(f"{pol.name}: selected unknown packet {pid} at slot {t}")
            if pkt in found:
                raise SimulationError(f"{pol.name}: packet {pid} selected twice at slot {t}")
            if pkt.residual_work <= 0:
                raise SimulationError(f"{pol.name}: packet {pid} selected at zero residual at slot {t}")
            pkt.residual_work -= 1
            found.append(pkt)
        if slot_ev:
            slot_ev.processed.extend(selected)

        # phase (iii): transmission
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
            raise SimulationError(f"{pol.name}: no progress with {len(queue)} packets queued at slot {t}")

        if log is not None:
            log.append(slot_ev)

    if admitted != transmitted + pushed:
        raise SimulationError(
            f"{pol.name}: conservation violated "
            f"(admitted {admitted} != transmitted {transmitted} + pushed out {pushed})"
        )
    return SimulationResult(
        policy=pol.name,
        final_slot=t,
        transmitted_count=transmitted,
        dropped_count=dropped,
        pushout_count=pushed,
        admitted_count=admitted,
        events=log,
    )


# ---------------------------------------------------------------------------
# Fast loops: counters only, no Packet objects.  The queue is a plain list of
# residuals (head at index 0).  Admission order equals list order because
# arrivals append at the tail, except on srpt's ascending queue, where order
# does not matter to the counts.  Only an admission raises a residual, so
# top >= max(q) holds with no invalidation; a full-buffer arrival below top
# recomputes it exactly.  Per-slot work is an explicit loop over the queue in
# place, never a comprehension: before Python 3.12 (PEP 709) each one runs
# in a function frame of its own, which costs more than a short loop.


def _fast_eager(slots, works, B, C, pushout, ordered):
    # npo, po and srpt: every slot processes the first min(C, occupancy)
    # packets.  srpt is po on a queue kept ascending (ordered): a push-out
    # evicts the tail, a maximal residual, and the head is the C smallest.
    # Decrementing the head keeps the queue sorted.
    q: list[int] = []
    place = partial(insort, q) if ordered else q.append
    single = C == 1
    n = len(slots)
    i = 0
    admitted = dropped = pushed = transmitted = 0
    t = top = 0
    while True:
        if q:
            t += 1
        elif i < n:
            t = slots[i]
        else:
            break
        while i < n and slots[i] == t:
            if len(q) < B:
                w = works[i]
                place(w)
                admitted += 1
                if w > top:
                    top = w
            elif pushout and (w := works[i]) < top:
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
            i += 1
        if q:
            if single:
                r = q[0] - 1
                if r:
                    q[0] = r
                else:
                    del q[0]
                    transmitted += 1
            else:
                # a finished packet leaves at once: the next one slides into
                # position j, and h shrinks so the window still ends where it began
                h = C if C < len(q) else len(q)
                j = 0
                while j < h:
                    r = q[j] - 1
                    if r:
                        q[j] = r
                        j += 1
                    else:
                        del q[j]
                        h -= 1
                        transmitted += 1
    return t, transmitted, dropped, pushed, admitted


def _fast_lazy(slots, works, B, C, spare):
    # lpo and lpo_p.  Marked packets form a prefix of the queue, tracked by
    # count alone; m > 0 means drain mode, and drained packets leave in their
    # slot.  Fill selected nothing before f, so the first f packets are at one
    # cycle.  s is one past the last position the last fill scanned: all before
    # it was processed or is at one cycle and stays put until the next fill, as
    # arrivals join the tail and victims (residual > w >= 1) lie at or after s.
    q: list[int] = []
    f = s = m = 0
    n = len(slots)
    i = 0
    admitted = dropped = pushed = transmitted = 0
    t = top = 0
    while True:
        if q:
            t += 1
        elif i < n:
            t = slots[i]
        else:
            break
        while i < n and slots[i] == t:
            w = works[i]
            i += 1
            if len(q) < B:
                q.append(w)
                admitted += 1
                if w > top:
                    top = w
                continue
            if w >= top or w >= (top := max(q)):
                dropped += 1
                continue
            v = q.index(top, f)
            if v < s:
                mx = max(q[s:], default=0)  # the first maximum is spared
                if w >= mx:
                    dropped += 1
                    continue
                v = q.index(mx, s)
            del q[v]
            q.append(w)
            admitted += 1
            pushed += 1
        if q:
            if m == 0:
                done = 0
                for idx in range(f, len(q)):
                    r = q[idx]
                    if r > 1:
                        q[idx] = r - 1
                        if not done:
                            f = idx
                        done += 1
                        if done == C:
                            break
                if not done:
                    m = len(q)  # everything at one cycle: mark all, drain
                    f = 0
                s = idx + 1 if spare and done else 0
            if m > 0:
                j = C if C < m else m
                del q[:j]
                m -= j
                transmitted += j
    return t, transmitted, dropped, pushed, admitted


_FAST_LOOPS = {
    "npo": partial(_fast_eager, pushout=False, ordered=False),
    "po": partial(_fast_eager, pushout=True, ordered=False),
    "srpt": partial(_fast_eager, pushout=True, ordered=True),
    "lpo": partial(_fast_lazy, spare=False),
    "lpo_p": partial(_fast_lazy, spare=True),
}
