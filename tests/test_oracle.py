"""Brute-force offline optimum: frozen examples, exhaustive cross-check, replay."""

import itertools

import numpy as np
import pytest

from fifosim import (
    OracleLimitError,
    SimulationError,
    Trace,
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
    # {k, 1} in one slot with B=1: either admission transmits exactly one
    result = offline_opt_bruteforce(make_trace([(1, [9, 1])]), B=1)
    assert result.throughput == 1


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


def test_empty_trace():
    result = offline_opt_bruteforce(make_trace([]), B=3)
    assert result.throughput == 0
    assert result.accept_mask == ()


def test_limit_refusal_is_explicit():
    trace = make_trace([(1, [1] * 15)])
    with pytest.raises(OracleLimitError):
        offline_opt_bruteforce(trace, B=2)
    # raising the limit keeps it usable
    assert offline_opt_bruteforce(trace, B=2, max_packets=15).throughput == 2


def _exhaustive_best(trace, B, C):
    """Independent oracle: try every accept mask through the engine."""
    n = trace.packet_count
    best = 0
    for bits in itertools.product((False, True), repeat=n):
        try:
            got = replay_accept_mask(trace, bits, B, C).transmitted_count
        except SimulationError:
            continue  # mask admits into a full buffer; infeasible
        best = max(best, got)
    return best


def test_matches_exhaustive_mask_enumeration(rng):
    for _ in range(40):
        trace = random_trace(rng, max_packets=7, max_slot=6, max_k=4)
        B = int(rng.integers(1, 4))
        C = int(rng.integers(1, 3))
        dp = offline_opt_bruteforce(trace, B, C)
        assert dp.throughput == _exhaustive_best(trace, B, C)


def test_mask_replay_reproduces_throughput(rng):
    for _ in range(60):
        trace = random_trace(rng, max_packets=10, max_slot=8, max_k=4)
        B = int(rng.integers(1, 4))
        result = offline_opt_bruteforce(trace, B, 1)
        replayed = replay_accept_mask(trace, result.accept_mask, B, 1)
        assert replayed.transmitted_count == result.throughput
        assert replayed.pushout_count == 0


def test_dominates_online_policies(rng):
    for _ in range(40):
        trace = random_trace(rng, max_packets=10, max_slot=8, max_k=4)
        B = int(rng.integers(2, 4))
        opt = offline_opt_bruteforce(trace, B, 1).throughput
        for pol in ("npo", "po", "lpo", "lpo_p"):
            assert run(trace, pol, B, 1).transmitted_count <= opt


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


def test_widened_search_gains_nothing(rng):
    # rejection-at-arrival dominates later eviction for an offline schedule;
    # confirm empirically with the push-out-widened search
    for _ in range(25):
        trace = random_trace(rng, max_packets=8, max_slot=8, max_k=4)
        B = int(rng.integers(1, 4))
        plain = offline_opt_bruteforce(trace, B, 1)
        widened = offline_opt_bruteforce(trace, B, 1, allow_pushout=True)
        assert widened.throughput == plain.throughput


def test_explored_counts_states():
    result = offline_opt_bruteforce(make_trace([(1, [2, 1]), (3, [1])]), B=2)
    assert result.explored >= 3


def test_memoisation_keeps_blowup_manageable():
    # one work-2 packet per slot overloads a single core: the optimum takes
    # every other packet plus a buffered tail (9; frozen from exhaustive
    # enumeration of all 2^14 masks through the engine)
    trace = make_trace([(s, [2]) for s in range(1, 15)])
    result = offline_opt_bruteforce(trace, B=3)
    assert result.throughput == 9
    assert result.explored < 3000
