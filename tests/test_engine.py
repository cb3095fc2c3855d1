"""Engine behaviour: phase order, drain to empty, accounting, determinism."""

import pytest

from fifosim import ACCEPT, Policy, SimulationError, Trace, TraceError, UnknownPolicyError, push_out, run

from conftest import make_trace, replay_event_log


def test_empty_trace_transmits_nothing():
    result = run(make_trace([]), "npo", 4, 1)
    assert result.transmitted_count == 0
    assert result.final_slot == 0


def test_single_packet_same_slot_completion():
    result = run(make_trace([(1, [1])]), "npo", 1, 1)
    assert result.transmitted_count == 1
    assert result.final_slot == 1


def test_npo_drops_third_packet_and_drains():
    # two work-2 packets fill B=2; the work-1 arrival is dropped; the engine
    # keeps running until the buffer empties at slot 4
    result = run(make_trace([(1, [2, 2, 1])]), "npo", 2, 1)
    assert result.transmitted_count == 2
    assert result.dropped_count == 1
    assert result.final_slot == 4


def test_transmission_same_slot_as_last_cycle():
    result = run(make_trace([(1, [2])]), "po", 3, 1, record_events=True)
    slots = {ev.slot: ev for ev in result.events}
    assert slots[2].processed == [1]
    assert slots[2].transmitted == [1]


def test_engine_runs_gap_slots_with_no_arrivals():
    result = run(make_trace([(1, [3]), (10, [1])]), "npo", 2, 1)
    assert result.transmitted_count == 2
    assert result.final_slot == 10


def test_idle_skip_between_bursts():
    result = run(make_trace([(1, [1]), (1000, [1])]), "npo", 2, 1, record_events=True)
    assert [ev.slot for ev in result.events] == [1, 1000]
    assert result.final_slot == 1000


def test_multi_core_processes_prefix():
    result = run(make_trace([(1, [2, 1, 3])]), "po", 3, 2, record_events=True)
    first = result.events[0]
    assert first.processed == [1, 2]
    assert first.transmitted == [2]  # the work-1 packet finishes immediately


def test_invalid_trace_rejected_before_slot_one():
    with pytest.raises(TraceError):
        run(Trace(slots=[1], works=[0], k_declared=1), "npo", 2, 1)
    with pytest.raises(TraceError):
        run(Trace(slots=[3, 2], works=[1, 1], k_declared=1), "npo", 2, 1)


def test_unknown_policy_rejected():
    with pytest.raises(UnknownPolicyError):
        run(make_trace([(1, [1])]), "optimal", 2, 1)


def test_bad_dimensions_rejected():
    with pytest.raises(ValueError):
        run(make_trace([(1, [1])]), "npo", 0, 1)
    with pytest.raises(ValueError):
        run(make_trace([(1, [1])]), "npo", 1, 0)


def test_determinism_identical_event_logs():
    trace = make_trace([(1, [3, 1, 2]), (2, [2, 2]), (5, [1, 4])])
    a = run(trace, "po", 3, 2, record_events=True, record_occupancy=True)
    b = run(trace, "po", 3, 2, record_events=True, record_occupancy=True)
    assert a.events == b.events
    assert a.occupancy_series == b.occupancy_series


def test_occupancy_series_bounded():
    trace = make_trace([(1, [2] * 9), (3, [1] * 7)])
    result = run(trace, "po", 4, 1, record_occupancy=True)
    assert max(result.occupancy_series) <= 4


def test_conservation_counters():
    trace = make_trace([(1, [2] * 6), (2, [1] * 6)])
    for pol in ("npo", "po", "lpo", "lpo_p", "srpt"):
        result = run(trace, pol, 3, 1)
        assert result.admitted_count == result.transmitted_count + result.pushout_count
        assert result.admitted_count + result.dropped_count == trace.packet_count


def test_pushout_pairs_recorded():
    trace = make_trace([(1, [5, 5]), (2, [1])])
    result = run(trace, "po", 2, 1, record_events=True)
    pushes = [pair for ev in result.events for pair in ev.pushed_out]
    assert pushes == [(2, 3)]  # the tail 5 evicted by the work-1 arrival


def test_event_log_replay_validates_structure():
    trace = make_trace([(1, [4, 2, 1, 3]), (2, [1, 1]), (6, [2, 5, 1])])
    for pol in ("npo", "po", "lpo", "lpo_p", "srpt"):
        result = run(trace, pol, 3, 2, record_events=True)
        replay_event_log(trace, result, 3, 2)


def test_fast_and_general_paths_agree(rng):
    # the sweeps' range: B 1..40, C 1..10, k up to 40; the fixed pairs cover
    # B = 1 and C > B, and ~120 packets over 15 slots fill a 40-packet buffer
    from conftest import random_trace

    dims = [(1, 1), (1, 10), (3, 7), (40, 1), (40, 10)]
    dims += [(int(rng.integers(1, 41)), int(rng.integers(1, 11))) for _ in range(95)]
    for B, C in dims:
        trace = random_trace(rng, max_packets=120, max_k=40)
        for pol in ("npo", "po", "lpo", "lpo_p", "srpt"):
            fast = run(trace, pol, B, C)
            slow = run(trace, pol, B, C, record_events=True)
            assert (
                fast.transmitted_count,
                fast.dropped_count,
                fast.pushout_count,
                fast.admitted_count,
                fast.final_slot,
            ) == (
                slow.transmitted_count,
                slow.dropped_count,
                slow.pushout_count,
                slow.admitted_count,
                slow.final_slot,
            ), (pol, B, C, trace.slots, trace.works)


def test_lpo_holds_finished_packets_until_drain():
    # work profile [1,1,3]: the two singles wait while the 3 is ground down,
    # then everything drains together
    result = run(make_trace([(1, [1, 1, 3])]), "lpo", 3, 1, record_events=True)
    by_slot = {ev.slot: ev for ev in result.events}
    assert by_slot[1].processed == [3]
    assert by_slot[1].transmitted == []
    assert by_slot[2].processed == [3]
    assert by_slot[3].processed == [1]
    assert by_slot[3].transmitted == [1]
    assert result.transmitted_count == 3
    assert result.final_slot == 5


def test_lpo_packets_admitted_during_drain_wait():
    # the two singles drain over slots 1-2; the work-5 packet admitted during
    # the drain gets no cycles until the next iteration starts at slot 3
    trace = make_trace([(1, [1, 1]), (2, [5])])
    result = run(trace, "lpo", 3, 1, record_events=True)
    replay_event_log(trace, result, 3, 1)
    by_slot = {ev.slot: ev for ev in result.events}
    assert by_slot[2].admitted == [3]
    assert by_slot[2].processed == [2]  # the marked packet, not the newcomer
    assert by_slot[3].processed == [3]
    assert result.transmitted_count == 3
    assert result.final_slot == 7


def test_lpo_p_differs_from_lpo_only_via_in_process():
    # full buffer, victim search must skip the in-process head
    trace = make_trace([(1, [7, 5]), (2, [4])])
    lpo = run(trace, "lpo", 2, 1, record_events=True)
    lpo_p = run(trace, "lpo_p", 2, 1, record_events=True)
    lpo_push = [p for ev in lpo.events for p in ev.pushed_out]
    lpo_p_push = [p for ev in lpo_p.events for p in ev.pushed_out]
    assert lpo_push == [(1, 3)]  # plain lazy evicts the 7 (head, max residual)
    assert lpo_p_push == [(2, 3)]  # sparing variant evicts the 5 instead


def test_policy_instance_accepted():
    from fifosim.policies import PoPolicy

    result = run(make_trace([(1, [2, 1])]), PoPolicy(), 2, 1)
    assert result.policy == "po"
    assert result.transmitted_count == 2


def test_bad_ids_from_custom_policy_raise_simulation_error():
    class EvictsStranger(Policy):
        def on_arrival(self, state, packet):
            return push_out(999)

        def select_processing(self, state, cores):
            return []

    class SelectsStranger(Policy):
        def on_arrival(self, state, packet):
            return ACCEPT

        def select_processing(self, state, cores):
            return [999]

    trace = make_trace([(1, [2])])
    for policy in (EvictsStranger(), SelectsStranger()):
        with pytest.raises(SimulationError, match="unknown packet 999"):
            run(trace, policy, 2, 1)
