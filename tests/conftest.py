"""Shared test helpers: trace builders and an event-log structure checker."""

from __future__ import annotations

import numpy as np
import pytest

from fifosim import Trace


def make_trace(events, k=0):
    """Trace from [(slot, [works...]), ...] with k inferred when omitted."""
    slots = [slot for slot, ws in events for _ in ws]
    works = [w for _, ws in events for w in ws]
    return Trace(slots=slots, works=works, k_declared=k or max(works, default=0))


def random_trace(rng: np.random.Generator, max_packets=20, max_slot=15, max_k=6):
    k = int(rng.integers(1, max_k + 1))
    n = int(rng.integers(0, max_packets + 1))
    slots = sorted(int(s) for s in rng.integers(1, max_slot + 1, n))
    works = [int(w) for w in rng.integers(1, k + 1, n)]
    return Trace(slots=slots, works=works, k_declared=k)


FIFO_IDS = ("npo", "po", "lpo", "lpo_p")
EAGER_IDS = ("npo", "po", "srpt")  # work-conserving: always process min(C, occupancy)


def replay_event_log(trace, result, B, C):
    """Re-derive buffer state from the event log and check every invariant.

    Returns the transmitted id sequence (in transmission order).  Raises
    AssertionError on any structural violation: occupancy bounds, push-out
    legality (strict residual decrease), processing limits, transmission of
    non-zero residuals, or lost packets.
    """
    policy = result.policy
    works = {pid: work for pid, work in enumerate(trace.works, 1)}
    arrivals_by_slot = {}
    for pid, slot in enumerate(trace.slots, 1):
        arrivals_by_slot.setdefault(slot, []).append(pid)

    residual = {}
    queue = []  # resident ids, FIFO
    marked = set()
    draining = False
    transmitted_order = []
    admitted_order = []
    seen_slots = set()

    for ev in result.events:
        assert ev.slot not in seen_slots, f"slot {ev.slot} appears twice"
        seen_slots.add(ev.slot)

        arriving = list(arrivals_by_slot.get(ev.slot, []))
        decided = sorted(ev.admitted + ev.dropped_on_arrival)
        assert decided == sorted(arriving), f"slot {ev.slot}: arrivals {arriving} vs decisions {decided}"
        pushed_victims = [v for v, _ in ev.pushed_out]
        pushers = {p: v for v, p in ev.pushed_out}
        for incoming in arriving:
            if incoming in ev.dropped_on_arrival:
                continue
            if incoming in pushers:
                victim = pushers[incoming]
                assert victim in queue, f"slot {ev.slot}: victim {victim} not resident"
                assert residual[victim] > works[incoming], (
                    f"slot {ev.slot}: push-out must strictly reduce residual work"
                )
                queue.remove(victim)
                marked.discard(victim)
                del residual[victim]
            else:
                assert len(queue) < B, f"slot {ev.slot}: plain admit into a full buffer"
            queue.append(incoming)
            residual[incoming] = works[incoming]
            admitted_order.append(incoming)
            assert len(queue) <= B, f"slot {ev.slot}: occupancy {len(queue)} > B"
        for victim in pushed_victims:
            assert victim not in queue

        # processing phase
        assert len(ev.processed) <= C, f"slot {ev.slot}: processed {len(ev.processed)} > C"
        assert len(set(ev.processed)) == len(ev.processed), "packet processed twice in a slot"
        if policy in EAGER_IDS:
            assert len(ev.processed) == min(C, len(queue)), (
                f"slot {ev.slot}: {policy} must process min(C, occupancy)"
            )
        elif queue:
            assert len(ev.processed) >= 1, f"slot {ev.slot}: idle with occupancy > 0"
        if policy in ("lpo", "lpo_p"):
            if draining and not marked:
                draining = False
            if not draining and queue and all(residual[q] == 1 for q in queue):
                marked.update(queue)
                draining = True
            if draining:
                expect = [q for q in queue if q in marked][:C]
            else:
                expect = [q for q in queue if residual[q] > 1][:C]
            assert ev.processed == expect, (
                f"slot {ev.slot}: lazy selection {ev.processed} != expected {expect}"
            )
        for p in ev.processed:
            assert p in queue, f"slot {ev.slot}: processed non-resident {p}"
            assert residual[p] >= 1
            residual[p] -= 1

        # transmission phase
        for p in ev.transmitted:
            assert p in queue, f"slot {ev.slot}: transmitted non-resident {p}"
            assert residual[p] == 0, f"slot {ev.slot}: transmitted with residual {residual[p]}"
            if policy in ("lpo", "lpo_p"):
                assert p in marked, f"slot {ev.slot}: lazy policy transmitted unmarked {p}"
            queue.remove(p)
            marked.discard(p)
            del residual[p]
            transmitted_order.append(p)
        for q in queue:
            assert residual[q] >= 1, f"slot {ev.slot}: resident {q} held at residual 0"

    assert not queue, f"run ended with {len(queue)} resident packets"
    assert len(transmitted_order) == result.transmitted_count
    assert len(admitted_order) == result.admitted_count
    assert result.admitted_count == result.transmitted_count + result.pushout_count
    assert result.admitted_count + result.dropped_count == trace.packet_count
    return transmitted_order, admitted_order


def is_subsequence(seq, full):
    it = iter(full)
    return all(x in it for x in seq)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
