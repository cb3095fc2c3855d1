"""Deterministic slotted-time engine.

Each slot runs three phases: (i) arrivals, offered to the policy one at a
time in trace order; (ii) processing, the policy selects at most C packets
and each selected packet loses one residual cycle; (iii) transmission,
zero-residual packets permitted by the policy's gate leave in queue order.
The engine keeps running drain slots past the last arrival until the buffer
empties, so throughput counts everything the policy would deliver.

``run`` dispatches to one of two fast loops (counters only) unless an event
log or occupancy series was requested: an eager loop for npo, po and srpt,
and a lazy loop for lpo and lpo_p.  Both loops and the general path walk the
trace's packet-aligned ``slots``/``works`` columns directly; the general path
numbers packet ``i`` of the trace as id ``i + 1``.  Both paths produce
identical counts.
"""

from __future__ import annotations

from functools import partial

from .core import BufferState, Packet, SimulationResult, SlotEvents, SimulationError
from .policies import make_policy
from .trace import Trace, TraceError, validate_trace


def run(
    trace: Trace,
    policy,
    buffer_size: int,
    cores: int,
    *,
    record_events: bool = False,
    record_occupancy: bool = False,
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
    if isinstance(policy, str) and not record_events and not record_occupancy:
        fast = _FAST_LOOPS.get(policy)
        if fast is None:
            make_policy(policy)  # raises UnknownPolicyError with the id list
        counts = fast(trace.slots, trace.works, buffer_size, cores)
        return SimulationResult(policy=policy, buffer_size=buffer_size, cores=cores, **counts)
    return _run_general(trace, policy, buffer_size, cores, record_events, record_occupancy)


def _run_general(trace, policy, buffer_size, cores, record_events, record_occupancy):
    pol = make_policy(policy)
    state = BufferState(capacity=buffer_size)
    queue = state.queue
    slots, works = trace.slots, trace.works
    n = len(slots)
    i = 0
    admitted = dropped = pushed = transmitted = 0
    t = 0
    final_slot = 0
    log: list[SlotEvents] | None = [] if record_events else None
    occupancy: list[int] | None = [] if record_occupancy else None

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
            pkt = Packet(i + 1, t, works[i], works[i])
            i += 1
            decision = pol.on_arrival(state, pkt)
            if decision.is_accept:
                if state.is_full():
                    raise SimulationError(f"{pol.name}: accept with a full buffer at slot {t}")
                queue.append(pkt)
                admitted += 1
                if slot_ev:
                    slot_ev.admitted.append(pkt.id)
            elif decision.is_pushout:
                victim = next((p for p in queue if p.id == decision.victim_id), None)
                if victim is None:
                    raise SimulationError(
                        f"{pol.name}: push-out of unknown packet {decision.victim_id} at slot {t}"
                    )
                if victim.residual_work <= pkt.required_work:
                    # push-out must strictly reduce total residual work
                    raise SimulationError(
                        f"{pol.name}: push-out of residual {victim.residual_work} "
                        f"for work {pkt.required_work} at slot {t}"
                    )
                queue.remove(victim)
                queue.append(pkt)
                admitted += 1
                pushed += 1
                if slot_ev:
                    slot_ev.pushed_out.append((victim.id, pkt.id))
                    slot_ev.admitted.append(pkt.id)
            else:
                dropped += 1
                if slot_ev:
                    slot_ev.dropped_on_arrival.append(pkt.id)

        # phase (ii): processing
        selected = pol.select_processing(state, cores)
        if len(selected) > cores:
            raise SimulationError(f"{pol.name}: selected {len(selected)} > C={cores}")
        if selected:
            by_id = {p.id: p for p in queue}
            seen = set()
            for pid in selected:
                if pid in seen:
                    raise SimulationError(f"{pol.name}: packet {pid} selected twice")
                seen.add(pid)
                pkt = by_id.get(pid)
                if pkt is None:
                    raise SimulationError(f"{pol.name}: selected unknown packet {pid} at slot {t}")
                if pkt.residual_work <= 0:
                    raise SimulationError(f"{pol.name}: packet {pid} selected at zero residual")
                pkt.residual_work -= 1
        pol.note_processed(selected)
        if slot_ev:
            slot_ev.processed.extend(selected)

        # phase (iii): transmission
        if selected:
            kept = []
            for p in queue:
                if p.residual_work == 0 and pol.may_transmit(state, p):
                    transmitted += 1
                    if slot_ev:
                        slot_ev.transmitted.append(p.id)
                else:
                    kept.append(p)
            if len(kept) != len(queue):
                queue[:] = kept
        elif queue and i >= n:
            raise SimulationError(f"{pol.name}: no progress with {len(queue)} packets queued")

        final_slot = t
        if log is not None:
            log.append(slot_ev)
        if occupancy is not None:
            occupancy.append(len(queue))

    if admitted != transmitted + pushed:
        raise SimulationError(
            f"{pol.name}: conservation violated "
            f"(admitted {admitted} != transmitted {transmitted} + pushed out {pushed})"
        )
    return SimulationResult(
        policy=pol.name,
        buffer_size=buffer_size,
        cores=cores,
        final_slot=final_slot,
        transmitted_count=transmitted,
        dropped_count=dropped,
        pushout_count=pushed,
        admitted_count=admitted,
        events=log,
        occupancy_series=occupancy,
    )


# ---------------------------------------------------------------------------
# Fast loops: counters only, no Packet objects.  The queue is a plain list of
# residuals (head at index 0); admission order equals list order because
# arrivals always append at the tail.  A comprehension here may take a local
# as its iterable but never read one inside: that makes the local a closure
# cell, slower on every access.


def _counts(final_slot, transmitted, dropped, pushed, admitted):
    return {
        "final_slot": final_slot,
        "transmitted_count": transmitted,
        "dropped_count": dropped,
        "pushout_count": pushed,
        "admitted_count": admitted,
    }


def _fast_eager(slots, works, B, C, pushout, shortest):
    # npo, po and srpt: every slot processes min(C, occupancy) packets, the
    # FIFO prefix or (shortest) the smallest residuals.
    q: list[int] = []
    single = C == 1
    n = len(slots)
    i = 0
    admitted = dropped = pushed = transmitted = 0
    t = final = 0
    while True:
        if q:
            t += 1
        elif i < n:
            t = slots[i]
        else:
            break
        while i < n and slots[i] == t:
            if len(q) < B:
                q.append(works[i])
                admitted += 1
            elif pushout:
                w = works[i]
                mx = max(q)
                if w < mx:
                    del q[q.index(mx)]
                    q.append(w)
                    admitted += 1
                    pushed += 1
                else:
                    dropped += 1
            else:
                dropped += 1
            i += 1
        if q:
            if shortest:
                if single:
                    best = min(q)
                    idx = q.index(best)
                    if best == 1:
                        del q[idx]
                        transmitted += 1
                    else:
                        q[idx] = best - 1
                else:
                    chosen = sorted(range(len(q)), key=q.__getitem__)[:C]
                    for idx in chosen:
                        q[idx] -= 1
                    for idx in sorted(chosen, reverse=True):
                        if q[idx] == 0:
                            del q[idx]
                            transmitted += 1
            elif single:
                r = q[0] - 1
                if r:
                    q[0] = r
                else:
                    del q[0]
                    transmitted += 1
            else:
                head = [r - 1 for r in q[:C]]
                kept = [r for r in head if r]
                transmitted += len(head) - len(kept)
                q[:C] = kept
        final = t
    return _counts(final, transmitted, dropped, pushed, admitted)


def _fast_lazy(slots, works, B, C, spare):
    # lpo and lpo_p.  Marked packets form a prefix of the queue, tracked by
    # count alone; m > 0 means drain mode.  sel holds the queue positions
    # processed in the last fill phase (empty during a drain); with spare set
    # the victim search skips them.
    q: list[int] = []
    sel: list[int] = []
    m = 0
    n = len(slots)
    i = 0
    admitted = dropped = pushed = transmitted = 0
    t = final = 0
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
                continue
            # w >= 1, so a marked packet (residual 1) is never the victim
            mx = max(q)
            if w >= mx:
                dropped += 1
                continue
            if spare:
                v = q.index(mx)
                if v in sel:
                    # the first maximum is spared: search a copy with the
                    # spared residuals zeroed, which no arrival's work undercuts
                    rest = q.copy()
                    for x in sel:
                        rest[x] = 0
                    mx = max(rest)
                    v = rest.index(mx)
                    if w >= mx:
                        dropped += 1
                        continue
                for idx, x in enumerate(sel):
                    if x > v:
                        sel[idx] = x - 1
                del q[v]
            else:
                del q[q.index(mx)]
            q.append(w)
            admitted += 1
            pushed += 1
        if q:
            if m == 0:
                sel = []
                for idx in range(len(q)):
                    if q[idx] > 1:
                        q[idx] -= 1
                        sel.append(idx)
                        if len(sel) == C:
                            break
                if not sel:
                    m = len(q)  # everything at one cycle: mark all, drain
            if m > 0:
                j = C if C < m else m
                del q[:j]
                m -= j
                transmitted += j
        final = t
    return _counts(final, transmitted, dropped, pushed, admitted)


_FAST_LOOPS = {
    "npo": partial(_fast_eager, pushout=False, shortest=False),
    "po": partial(_fast_eager, pushout=True, shortest=False),
    "srpt": partial(_fast_eager, pushout=True, shortest=True),
    "lpo": partial(_fast_lazy, spare=False),
    "lpo_p": partial(_fast_lazy, spare=True),
}
