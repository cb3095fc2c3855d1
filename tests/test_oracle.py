"""Offline optimum: frozen examples, exhaustive and push-out cross-checks, replay."""

import functools
import itertools

import numpy as np
import pytest

import fifosim.oracle
from fifosim import (
    OracleLimitError,
    SimulationError,
    Trace,
    TraceError,
    gen_adversarial,
    offline_opt_bruteforce,
    replay_accept_mask,
    run,
)
from fifosim.verify import random_micro_trace

from conftest import make_trace, random_trace


def test_single_packet():
    result = offline_opt_bruteforce(make_trace([(1, [1])]), B=1)
    assert result.throughput == 1
    assert result.accept_mask == (True,)


def test_rejecting_heavy_head_is_no_better_at_b1():
    # {k, 1} in one slot with B=1: either admission transmits exactly one,
    # and on the tie the mask rejects
    result = offline_opt_bruteforce(make_trace([(1, [9, 1])]), B=1)
    assert result.throughput == 1
    assert result.accept_mask == (False, True)


def test_same_slot_burst_capped_by_buffer():
    # all four arrive in one slot; no processing happens between offers, so
    # at most B=2 can ever be admitted (exhaustive enumeration agrees)
    result = offline_opt_bruteforce(make_trace([(1, [3, 1, 1, 1])]), B=2)
    assert result.throughput == 2


def test_staggered_singles_ride_through():
    # rejecting the 3 lets the singles flow: two queued at slot 1, the
    # freed space takes the slot-2 arrival
    result = offline_opt_bruteforce(make_trace([(1, [3, 1, 1]), (2, [1])]), B=2)
    assert result.throughput == 3
    assert result.accept_mask == (False, True, True, True)


@pytest.mark.parametrize("B, C", [(2.5, 1), (2, 1.5), (True, 1), (2, True)])
def test_non_integer_dimensions_rejected(B, C):
    # B = 2.5 used to answer as if B were 3, and C = 1.5 raised TypeError
    with pytest.raises(ValueError, match="integer"):
        offline_opt_bruteforce(make_trace([(1, [1, 2, 3])]), B, C)


def test_empty_trace():
    result = offline_opt_bruteforce(make_trace([]), B=3)
    assert result.throughput == 0
    assert result.accept_mask == ()
    assert result.explored == 1


@pytest.mark.parametrize(
    "trace",
    [
        Trace(slots=[2, 1], works=[1, 1]),  # decreasing slots
        Trace(slots=[0], works=[1]),  # slot below 1
        Trace(slots=[1], works=[0]),  # no work
        Trace(slots=[1, 1], works=[1]),  # columns of unequal length
        Trace(slots=[1], works=[2.5]),  # the slot and work must be ints
        Trace(slots=[1.5], works=[2]),
        Trace(slots=[1], works=[True]),
        Trace(slots=None, works=None),  # the columns must be lists or tuples
        Trace(slots=iter([1]), works=[1]),
    ],
)
def test_invalid_trace_is_refused(trace):
    with pytest.raises(TraceError):
        offline_opt_bruteforce(trace, B=1)


def test_limit_refusal_is_explicit(monkeypatch):
    # the limit is on states visited, not packets: 15 same-slot singles solve
    trace = make_trace([(1, [1] * 15)])
    result = offline_opt_bruteforce(trace, B=2)
    assert (result.throughput, result.explored) == (2, 42)
    monkeypatch.setattr(fifosim.oracle, "_MAX_STATES", 20)
    with pytest.raises(OracleLimitError):
        offline_opt_bruteforce(trace, B=2)


def test_long_construction_trace():
    # 980 packets; the construction's claimed reference schedule is feasible
    # but one packet per period short of the optimum
    adv = gen_adversarial("PO_KLTB", B=40, k=2, periods=10)
    result = offline_opt_bruteforce(adv.trace, B=40)
    assert adv.trace.packet_count == 980
    assert result.throughput == 790
    assert result.explored == 103_500
    assert adv.claimed_total["reference"] == 780
    assert replay_accept_mask(adv.trace, result.accept_mask, 40).transmitted_count == 790


def test_replay_refuses_a_mask_of_another_length():
    # a short mask used to reject the tail of the trace silently
    trace = make_trace([(1, [1, 1])])
    for mask in ((True,), (True, True, True)):
        with pytest.raises(ValueError, match="mask has"):
            replay_accept_mask(trace, mask, 2)


def _exhaustive_best(trace, B, C):
    """Independent oracle: try every accept mask through the engine.

    Returns the best throughput and the first mask, in ``itertools.product``
    order (reject before accept, packet 0 first), that reaches it.
    """
    n = trace.packet_count
    best, first = 0, (False,) * n
    for bits in itertools.product((False, True), repeat=n):
        try:
            got = replay_accept_mask(trace, bits, B, C).transmitted_count
        except SimulationError:
            continue  # mask admits into a full buffer; infeasible
        if got > best:
            best, first = got, bits
    return best, first


def test_matches_exhaustive_mask_enumeration(rng):
    for _ in range(40):
        trace = random_trace(rng, max_packets=7, max_slot=6, max_k=4)
        B = int(rng.integers(1, 4))
        C = int(rng.integers(1, 3))
        dp = offline_opt_bruteforce(trace, B, C)
        # on a tie the oracle rejects, so its mask is the first optimal one
        assert (dp.throughput, dp.accept_mask) == _exhaustive_best(trace, B, C)


def test_mask_replay_reproduces_throughput(rng):
    for _ in range(60):
        trace = random_trace(rng, max_packets=10, max_slot=8, max_k=4)
        B = int(rng.integers(1, 4))
        C = int(rng.integers(1, 4))
        result = offline_opt_bruteforce(trace, B, C)
        replayed = replay_accept_mask(trace, result.accept_mask, B, C)
        assert replayed.transmitted_count == result.throughput
        assert replayed.pushout_count == 0


def test_dominates_online_policies(rng):
    for _ in range(40):
        trace = random_trace(rng, max_packets=10, max_slot=8, max_k=4)
        B = int(rng.integers(2, 4))
        C = int(rng.integers(1, 4))
        opt = offline_opt_bruteforce(trace, B, C).throughput
        for pol in ("npo", "po", "lpo", "lpo_p"):
            assert run(trace, pol, B, C).transmitted_count <= opt


def test_srpt_at_least_oracle_at_one_core():
    # on one core the shortest-residual push-out reference is optimal, so it
    # never falls below the FIFO-prefix oracle; instances as verify_micro draws them
    for index in range(300):
        rng = np.random.default_rng(10_000 + index)
        B = int(rng.choice([2, 3]))
        k = int(rng.choice([2, 3, 4]))
        trace = random_micro_trace(rng, k=k)
        opt = offline_opt_bruteforce(trace, B, 1).throughput
        assert run(trace, "srpt", B, 1).transmitted_count >= opt, (B, trace.slots, trace.works)


def test_srpt_is_not_an_upper_bound_at_two_cores():
    # the smallest instance found where srpt falls below the oracle at C = 2,
    # while every FIFO policy stays at or below it
    trace = Trace(
        slots=[1, 1, 2, 3, 4, 5, 5, 6, 6, 8, 8], works=[1, 1, 4, 2, 3, 2, 4, 3, 3, 3, 1], k_declared=4
    )
    sent = {pol: run(trace, pol, 3, 2).transmitted_count for pol in ("npo", "po", "lpo", "lpo_p", "srpt")}
    assert offline_opt_bruteforce(trace, 3, 2).throughput == 9
    assert sent == {"npo": 9, "po": 9, "lpo": 7, "lpo_p": 7, "srpt": 8}


def test_monotone_under_added_packet(rng):
    for _ in range(40):
        trace = random_trace(rng, max_packets=8, max_slot=8, max_k=4)
        base = offline_opt_bruteforce(trace, B=2).throughput
        slot = int(rng.integers(1, 9))
        work = int(rng.integers(1, 5))
        slots, works = map(list, zip(*sorted([*zip(trace.slots, trace.works), (slot, work)])))
        bigger = Trace(slots=slots, works=works, k_declared=max(trace.k_declared, work))
        assert offline_opt_bruteforce(bigger, B=2).throughput >= base


def _pushout_search(trace, B, C):
    """Independent search that may also admit a packet by evicting any resident.

    An eviction nets 0: the new packet's transmission replaces the victim's.
    """
    slots, works, n = trace.slots, trace.works, trace.packet_count

    def advance(queue, nslots):
        q = list(queue)
        for _ in range(nslots):
            head = [r - 1 for r in q[:C]]
            q = [r for r in head if r] + q[C:]
        return tuple(q)

    @functools.lru_cache(maxsize=None)
    def best(i, queue):
        if i == n:
            return 0
        gap = slots[i + 1] - slots[i] if i + 1 < n else 0
        value = best(i + 1, advance(queue, gap))
        if len(queue) < B:
            value = max(value, 1 + best(i + 1, advance(queue + (works[i],), gap)))
        for victim in range(len(queue)):
            evicted = queue[:victim] + queue[victim + 1 :] + (works[i],)
            value = max(value, best(i + 1, advance(evicted, gap)))
        return value

    return best(0, ())


def test_widened_search_gains_nothing(rng):
    # rejection-at-arrival dominates later eviction for an offline schedule;
    # confirm empirically with a search that may also push out, on 1-3 cores
    for _ in range(60):
        trace = random_trace(rng, max_packets=8, max_slot=8, max_k=4)
        B = int(rng.integers(1, 4))
        C = int(rng.integers(1, 4))
        assert _pushout_search(trace, B, C) == offline_opt_bruteforce(trace, B, C).throughput


def _slot_by_slot_opt(trace, B, C):
    """The oracle's dynamic program with the queue advanced one slot at a time.

    Returns ``(throughput, accept_mask, explored)`` by the oracle's rules: the
    layer sizes summed, and the smallest optimal mask read as a binary number
    with packet 0 as its most significant bit (a tie rejects).
    """
    slots, works, n = trace.slots, trace.works, trace.packet_count

    def advance(queue, nslots):
        for _ in range(nslots):
            if not queue:
                break
            queue = tuple(r - 1 for r in queue[:C] if r > 1) + queue[C:]
        return queue

    frontier, explored = {(): (0, 0)}, 0
    for i in range(n):
        explored += len(frontier)
        gap = slots[i + 1] - slots[i] if i + 1 < n else 0
        layer = {}
        for q, (g, m) in frontier.items():
            successors = [(advance(q, gap), (g, 2 * m))]
            if len(q) < B:
                successors.append((advance(q + (works[i],), gap), (g + 1, 2 * m - 1)))
            for r, best in successors:
                layer[r] = max(layer.get(r, best), best)
        frontier = layer
    g, m = max(frontier.values())
    return g, tuple(bool(-m >> j & 1) for j in reversed(range(n))), explored or 1


def test_window_advance_matches_slot_by_slot_advance(rng):
    # the oracle steps its processing window by the smallest residual in it;
    # the states, the optimum, the mask and the count must match stepping by one
    for _ in range(600):
        trace = random_trace(rng, max_packets=12, max_slot=10, max_k=6)
        B = int(rng.integers(1, 5))
        C = int(rng.integers(1, 5))
        result = offline_opt_bruteforce(trace, B, C)
        assert (result.throughput, result.accept_mask, result.explored) == _slot_by_slot_opt(trace, B, C)


def test_replay_refuses_an_accept_into_a_full_buffer():
    # the refusal _exhaustive_best passes over for an infeasible mask
    with pytest.raises(SimulationError, match=r"^scripted: accept with a full buffer at slot 1$"):
        replay_accept_mask(Trace([1, 1], [2, 2]), (True, True), 1)


def test_explored_counts_states():
    result = offline_opt_bruteforce(make_trace([(1, [2, 1]), (3, [1])]), B=2)
    assert result.explored == 5


def test_memoisation_keeps_blowup_manageable():
    # one work-2 packet per slot overloads a single core: the optimum takes
    # every other packet plus a buffered tail (9; frozen from exhaustive
    # enumeration of all 2^14 masks through the engine)
    trace = make_trace([(s, [2]) for s in range(1, 15)])
    result = offline_opt_bruteforce(trace, B=3)
    assert result.throughput == 9
    assert result.explored == 69
