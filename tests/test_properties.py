"""Property-based invariants over random traces and buffer geometries."""

from hypothesis import given, assume, settings
from hypothesis import strategies as st

from fifosim import Trace, offline_opt_bruteforce, run

from conftest import FIFO_IDS, is_subsequence, replay_event_log

packet_lists = st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 6)),  # (slot gap, work)
    max_size=18,
)


def build_trace(deltas):
    slots = []
    slot = 1
    for gap, _ in deltas:
        slot += gap
        slots.append(slot)
    return Trace(slots=slots, works=[work for _, work in deltas], k_declared=6)


policy_ids = st.sampled_from(("npo", "po", "lpo", "lpo_p", "srpt"))


@given(packet_lists, policy_ids, st.integers(1, 5), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_structural_invariants_hold(deltas, policy, B, C):
    # occupancy bound, push-out legality, processing limits, work conservation,
    # zero-residual departures, and the conservation identities
    trace = build_trace(deltas)
    result = run(trace, policy, B, C, record_events=True)
    replay_event_log(trace, result, B, C)


@given(packet_lists, st.sampled_from(FIFO_IDS), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_fifo_delivery_order_single_core(deltas, policy, B):
    trace = build_trace(deltas)
    result = run(trace, policy, B, 1, record_events=True)
    transmitted, admitted = replay_event_log(trace, result, B, 1)
    assert is_subsequence(transmitted, admitted)


@given(packet_lists, st.integers(1, 5), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_npo_never_pushes_out(deltas, B, C):
    result = run(build_trace(deltas), "npo", B, C)
    assert result.pushout_count == 0


@given(packet_lists, st.integers(1, 5), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_pushout_strictly_decreases_total_residual(deltas, B, C):
    trace = build_trace(deltas)
    works = dict(enumerate(trace.works, 1))
    for policy in ("po", "lpo", "lpo_p", "srpt"):
        result = run(trace, policy, B, C, record_events=True)
        residual = {}
        for ev in result.events:
            arriving = iter(ev.admitted)
            pushers = {p: v for v, p in ev.pushed_out}
            for pid in ev.admitted:
                if pid in pushers:
                    victim = pushers[pid]
                    # W_after - W_before = work(p) - residual(victim) < 0
                    assert works[pid] < residual[victim]
                    del residual[victim]
                residual[pid] = works[pid]
            for pid in ev.processed:
                residual[pid] -= 1
            for pid in ev.transmitted:
                del residual[pid]


@given(packet_lists, st.integers(1, 5), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_greedy_policies_agree_without_congestion(deltas, B, C):
    # when no arrival ever meets a full buffer, the greedy policies admit the
    # exact same packet set
    trace = build_trace(deltas)
    results = {
        pol: run(trace, pol, B, C, record_events=True) for pol in ("npo", "po", "lpo")
    }
    congested = any(
        ev.dropped_on_arrival or ev.pushed_out
        for res in results.values()
        for ev in res.events
    )
    assume(not congested)
    admitted = {
        pol: [pid for ev in res.events for pid in ev.admitted]
        for pol, res in results.items()
    }
    assert admitted["npo"] == admitted["po"] == admitted["lpo"]


@given(packet_lists, policy_ids, st.integers(1, 4), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_runs_are_deterministic(deltas, policy, B, C):
    trace = build_trace(deltas)
    a = run(trace, policy, B, C, record_events=True)
    b = run(trace, policy, B, C, record_events=True)
    assert a.events == b.events


@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4)), max_size=8),
    st.tuples(st.integers(1, 8), st.integers(1, 4)),
    st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_oracle_monotone_in_added_packet(deltas, extra, B):
    trace = build_trace(deltas)
    base = offline_opt_bruteforce(trace, B).throughput
    slots, works = map(list, zip(*sorted([*zip(trace.slots, trace.works), extra])))
    bigger = Trace(slots=slots, works=works, k_declared=6)
    assert offline_opt_bruteforce(bigger, B).throughput >= base


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4)), max_size=10), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_oracle_dominates_fifo_policies(deltas, B):
    trace = build_trace(deltas)
    opt = offline_opt_bruteforce(trace, B).throughput
    for policy in FIFO_IDS:
        assert run(trace, policy, B, 1).transmitted_count <= opt
