"""Engine behaviour: phase order, drain to empty, accounting, determinism."""

import itertools
import re
from enum import Enum

import pytest

from fifosim import (
    ACCEPT,
    MmppParams,
    Policy,
    SimulationError,
    Trace,
    TraceError,
    UnknownPolicyError,
    gen_mmpp,
    make_policy,
    push_out,
    run,
)
from fifosim import engine
from fifosim.policies import POLICY_IDS, AdmissionDecision

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
    # the fast loop only: the general path never ended on a nan work
    with pytest.raises(TraceError, match="integer"):
        run(Trace(slots=[1], works=[float("nan")]), "npo", 2, 1)


def test_unknown_policy_rejected():
    # an id of the wrong type, unhashable ones included, is as unknown as a misspelt one
    for policy in ("optimal", ["po"], 5):
        for record_events in (False, True):
            with pytest.raises(UnknownPolicyError):
                run(make_trace([(1, [1])]), policy, 2, 1, record_events=record_events)
        with pytest.raises(UnknownPolicyError):
            make_policy(policy)


def test_every_registered_id_has_a_fast_loop():
    # an id without one would silently run on the general path
    assert set(engine._FAST_LOOPS) == set(POLICY_IDS)


def test_bad_dimensions_rejected():
    with pytest.raises(ValueError):
        run(make_trace([(1, [1])]), "npo", 0, 1)
    with pytest.raises(ValueError):
        run(make_trace([(1, [1])]), "npo", 1, 0)


_THREE = make_trace([(1, [1, 2, 3])])


@pytest.mark.parametrize(
    "B, C, trace",
    [
        pytest.param(4, 2.5, _THREE, id="4-2.5"),
        pytest.param(2.5, 1, _THREE, id="2.5-1"),
        pytest.param(4, 1.0, _THREE, id="4-1.0"),
        pytest.param(True, 1, _THREE, id="True-1"),
        pytest.param(4, True, _THREE, id="4-True"),
        pytest.param(4, 1, Trace([1], [2.5]), id="work-2.5"),
        pytest.param(4, 1, Trace([1.5], [2]), id="slot-1.5"),
        pytest.param(4, 1, Trace([1], [True]), id="work-True"),
    ],
)
def test_non_integer_dimensions_rejected(B, C, trace):
    # C = 2.5 used to run as 3 cores and B = 2.5 as a buffer of 3 on the fast
    # path, while the general path raised TypeError; C = 1.0 would take the
    # one-core loop; a work of 2.5 gave npo's fast loop final_slot=2.5
    for policy in ("npo", make_policy("npo")):
        with pytest.raises(ValueError, match="integer"):
            run(trace, policy, B, C)


def test_determinism_identical_event_logs():
    trace = make_trace([(1, [3, 1, 2]), (2, [2, 2]), (5, [1, 4])])
    a = run(trace, "po", 3, 2, record_events=True)
    b = run(trace, "po", 3, 2, record_events=True)
    assert a.events == b.events


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


def counters(result):
    return (
        result.transmitted_count,
        result.dropped_count,
        result.pushout_count,
        result.admitted_count,
        result.final_slot,
    )


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
            slow = run(trace, make_policy(pol), B, C)
            assert counters(fast) == counters(slow), (pol, B, C, trace.slots, trace.works)


def test_fast_and_general_paths_agree_at_sweep_scale():
    # one sweep-shaped trace (k = 5, B = 10) at half a sweep cell's length,
    # on the C-sweep's single- and multi-core branches
    trace = gen_mmpp(MmppParams(k=5), 100_000, seed=2024)
    for pol, cores in itertools.product(("npo", "po", "lpo", "lpo_p", "srpt"), (1, 5)):
        fast = run(trace, pol, 10, cores, validate=False)
        slow = run(trace, make_policy(pol), 10, cores, validate=False)
        assert counters(fast) == counters(slow), (pol, cores)


def test_fast_and_general_paths_agree_on_one_core(rng):
    # every k-sweep cell runs at C = 1, which has loops of its own; the test
    # above draws C from 1..10, so only about a tenth of its traces reach them
    from conftest import random_trace

    for B in [1, 40] + [int(rng.integers(1, 41)) for _ in range(198)]:
        trace = random_trace(rng, max_packets=120, max_k=40)
        for pol in ("npo", "po", "lpo", "lpo_p", "srpt"):
            fast = run(trace, pol, B, 1)
            slow = run(trace, make_policy(pol), B, 1)
            assert counters(fast) == counters(slow), (pol, B, trace.slots, trace.works)


def test_fast_srpt_agrees_with_general_on_ties(rng):
    # ties are where a fast loop could part from its policy: srpt's queue is
    # kept ascending instead of in admission order, the push-out loops test
    # arrivals against a bound that can sit above the true maximum, there
    # are duplicate maxima, lpo_p spares a first maximum and lpo drains an
    # all-ones queue.  Works in {1, 2, 3}, up to 150 packets over 6 slots,
    # C > B included
    dims = [(1, 1), (1, 10), (2, 10), (5, 7), (40, 1), (40, 10)]
    dims += [(int(rng.integers(1, 41)), int(rng.integers(1, 11))) for _ in range(94)]
    for B, C in dims:
        n = int(rng.integers(1, 151))
        slots = sorted(int(s) for s in rng.integers(1, 7, n))
        works = [int(w) for w in rng.integers(1, 4, n)]
        trace = Trace(slots=slots, works=works, k_declared=3)
        for pol in ("npo", "po", "lpo", "lpo_p", "srpt"):
            fast = run(trace, pol, B, C)
            slow = run(trace, make_policy(pol), B, C)
            assert counters(fast) == counters(slow), (pol, B, C, slots, works)


def test_pushout_below_a_stale_maximum_recomputes_then_drops():
    # B = 2: the 3 pushes out the 5, leaving [4, 3], so the last arrival's
    # work 4 is below the largest residual ever admitted but equals the true
    # maximum and must be dropped
    trace = make_trace([(1, [5, 4, 3, 4])])
    for pol in ("po", "lpo", "lpo_p", "srpt"):
        fast = run(trace, pol, 2, 1)
        assert counters(fast) == counters(run(trace, make_policy(pol), 2, 1)), pol
        assert (fast.pushout_count, fast.dropped_count) == (1, 1), pol


def test_adjacent_head_packets_finish_together_on_three_cores():
    # C = 3: in slot 1 the two 1s at the head finish together, the 2 right
    # behind them slides to the head and is processed but stays, and the 3s
    # wait outside the three-packet head.  Skipping the packet that slides
    # into a freed position, or processing one that slides into the head from
    # behind it, changes the counts
    trace = make_trace([(1, [1, 1, 2, 3, 3])])
    for pol in ("npo", "po", "srpt"):
        fast = run(trace, pol, 5, 3)
        assert counters(fast) == counters(run(trace, make_policy(pol), 5, 3)), pol
        assert counters(fast) == (5, 0, 0, 5, 4), pol


def test_lpo_victim_right_after_one_cycle_prefix():
    # slot 1 grinds the 4 at position 2 down to 3 behind two one-cycle
    # packets; at slot 2 that 3 is the victim of the work-2 arrival
    trace = make_trace([(1, [1, 1, 4, 2]), (2, [2])])
    fast = run(trace, "lpo", 4, 1)
    slow = run(trace, "lpo", 4, 1, record_events=True)
    assert counters(fast) == counters(slow)
    assert [ev.pushed_out for ev in slow.events if ev.pushed_out] == [[(3, 5)]]
    assert counters(fast) == (4, 0, 1, 5, 7)


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

    # slot 1's fill phase processes positions 0 and 2 and skips the 1 between
    # them, so lpo_p spares everything before position 3, not before 2 (the
    # number processed): the victim is the 3, not the processed 5 (now 4)
    spaced = Trace(slots=[1, 1, 1, 1, 2], works=[5, 1, 5, 3, 2])
    spaced_lpo_p = run(spaced, "lpo_p", 4, 2, record_events=True)
    assert [p for ev in spaced_lpo_p.events for p in ev.pushed_out] == [(4, 5)]
    assert counters(spaced_lpo_p) == (4, 0, 1, 5, 7)  # final slot 7
    cases = ((lpo, trace, 2, 1), (lpo_p, trace, 2, 1), (spaced_lpo_p, spaced, 4, 2))
    for general, tr, B, C in cases:
        assert counters(run(tr, general.policy, B, C)) == counters(general)


def pushouts(result):
    return [pair for ev in result.events for pair in ev.pushed_out]


def test_po_pushes_out_a_partly_processed_head():
    # B = 3, C = 1: the 4 is ground to 3 in slot 1, so in slot 2 it ties the
    # waiting 3 and, being first, is the maximum the 2 pushes out.  The 1
    # behind it starts and leaves in that same slot, which makes room for the
    # 1 arriving in slot 3; evicting the waiting 3 instead would keep the
    # buffer full and push out the head then
    trace = make_trace([(1, [4, 1, 3]), (2, [2]), (3, [1])])
    slow = run(trace, "po", 3, 1, record_events=True)
    assert pushouts(slow) == [(1, 4)]
    assert {ev.slot: ev.processed for ev in slow.events}[2] == [2]
    assert counters(run(trace, "po", 3, 1)) == counters(slow) == (4, 0, 1, 5, 8)


def test_srpt_preempts_a_head_in_the_slot_it_started():
    # B = 2: the 1 leaves in slot 1 and the 3 starts in slot 2, where the
    # arriving 2 is below its residual and takes the head.  In slot 3 the 2 is
    # at one cycle, so the arriving 2 pushes out the 3; had the 3 kept the
    # head, the arrival would tie its residual 2 and be dropped
    trace = make_trace([(1, [1, 3]), (2, [2]), (3, [2])])
    slow = run(trace, "srpt", 2, 1, record_events=True)
    assert [ev.processed for ev in slow.events] == [[1], [3], [3], [4], [4]]
    assert counters(run(trace, "srpt", 2, 1)) == counters(slow) == (3, 0, 1, 4, 5)
    # the same in the arrival's own slot: the 1 preempts the 3 admitted before it
    trace = make_trace([(1, [3, 1])])
    for result in (run(trace, "srpt", 3, 1), run(trace, make_policy("srpt"), 3, 1)):
        assert counters(result) == (2, 0, 0, 2, 4)


@pytest.mark.parametrize(
    "pol, expected",
    [("npo", (2, 2, 0, 2, 6)), ("po", (2, 1, 1, 3, 6)), ("srpt", (2, 1, 1, 3, 6))],
)
def test_eager_policies_with_a_one_packet_buffer(pol, expected):
    # B = 1: the head is the whole buffer.  In slot 2 the first 1 pushes out
    # the 3 (residual 2) on po and srpt and leaves at once; the second 1 ties
    # its residual and is dropped.  npo drops both
    trace = make_trace([(1, [3]), (2, [1, 1]), (5, [2])])
    assert counters(run(trace, pol, 1, 1)) == counters(run(trace, make_policy(pol), 1, 1)) == expected


@pytest.mark.parametrize("pol", ["lpo", "lpo_p"])
@pytest.mark.parametrize(
    "C, events, left, expected",
    [
        # C = 1: the 1 arriving in slot 2 waits out the fill of the 2 behind it
        # and leaves in the next drain, at slot 4
        (1, [(1, [1, 1]), (2, [1, 2])], 4, (4, 0, 0, 4, 5)),
        # C = 2: the one marked packet left in slot 2 takes one core, and the
        # arriving 1 is not marked, so it leaves in the next drain, at slot 3
        (2, [(1, [1, 1, 1]), (2, [1])], 3, (4, 0, 0, 4, 3)),
    ],
)
def test_one_cycle_arrival_during_drain_waits_for_the_next(pol, C, events, left, expected):
    trace = make_trace(events)
    slow = run(trace, pol, 4, C, record_events=True)
    replay_event_log(trace, slow, 4, C)
    newcomer = trace.slots.index(2) + 1
    assert [ev.slot for ev in slow.events if newcomer in ev.transmitted] == [left]
    assert counters(run(trace, pol, 4, C)) == counters(slow) == expected


def test_lpo_p_spares_only_processed_packets_still_above_one():
    # B = 3, C = 2: slot 1's fill grinds the 2 to one cycle and the 5 to 4, so
    # the spared prefix is the 5 alone; the 3 arriving in slot 2 pushes out the
    # unprocessed 4, the first maximum outside it.  Sparing both processed
    # packets would leave no victim and drop the 3
    trace = make_trace([(1, [2, 5, 4]), (2, [3])])
    slow = run(trace, "lpo_p", 3, 2, record_events=True)
    assert pushouts(slow) == [(3, 4)]
    assert counters(run(trace, "lpo_p", 3, 2)) == counters(slow) == (3, 0, 1, 4, 6)


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


def test_broken_invariants_from_custom_policy_raise_simulation_error():
    class EvictsLighter(Policy):
        def on_arrival(self, state, packet):
            return push_out(state.queue[0].id) if state.is_full() else ACCEPT

        def select_processing(self, state, cores):
            return []

    class ZeroesThenSelects(Policy):
        def on_arrival(self, state, packet):
            return ACCEPT

        def select_processing(self, state, cores):
            state.queue[0].residual_work = 0
            return [state.queue[0].id]

    class ClearsQueue(Policy):
        def on_arrival(self, state, packet):
            state.queue.clear()
            return ACCEPT

        def select_processing(self, state, cores):
            return [p.id for p in state.queue[:cores]]

    for policy, trace, message in (
        (EvictsLighter(), make_trace([(1, [1, 2])]), "push-out of residual 1 for work 2"),
        (ZeroesThenSelects(), make_trace([(1, [2])]), "selected at zero residual"),
        (
            ClearsQueue(),
            make_trace([(1, [2, 2])]),
            re.escape("conservation violated (admitted 2 != transmitted 1 + pushed out 0)"),
        ),
    ):
        with pytest.raises(SimulationError, match=message):
            run(trace, policy, 1, 1)


def test_accept_into_a_full_buffer_raises_simulation_error():
    class AlwaysAccepts(Policy):
        def on_arrival(self, state, packet):
            return ACCEPT

        def select_processing(self, state, cores):
            return [p.id for p in state.queue[:cores]]

    with pytest.raises(SimulationError, match=r"^AlwaysAccepts: accept with a full buffer at slot 1$"):
        run(make_trace([(1, [2, 2])]), AlwaysAccepts(), 1, 1)


def test_packet_zeroed_without_selection_leaves_in_that_slot():
    # transmission scans the whole queue, not only the packets selected
    class ZeroesTheTail(Policy):
        def on_arrival(self, state, packet):
            return ACCEPT

        def select_processing(self, state, cores):
            if len(state.queue) > 1:
                state.queue[-1].residual_work = 0
            return [state.queue[0].id]

    result = run(make_trace([(1, [2, 3])]), ZeroesTheTail(), 2, 1, record_events=True)
    assert [(ev.slot, ev.processed, ev.transmitted) for ev in result.events] == [(1, [1], [2]), (2, [1], [1])]
    assert (result.transmitted_count, result.final_slot) == (2, 2)


class Answers(Policy):
    """Gives the same admission answer to every arrival and the same selection
    to every processing phase."""

    name = "misbehaving"

    def __init__(self, admission, selection):
        self.admission = admission
        self.selection = selection

    def on_arrival(self, state, packet):
        return self.admission

    def select_processing(self, state, cores):
        return self.selection


@pytest.mark.parametrize(
    "admission, selection",
    [
        (None, []),
        ("accept", []),
        (AdmissionDecision("acept"), []),  # neither ACCEPT, DROP nor a push-out of a packet
        (Enum("Admission", "ACCEPT DROP").ACCEPT, []),  # equal in name only to ACCEPT
        (ACCEPT, None),
        (ACCEPT, [[1]]),  # an unhashable id
        (ACCEPT, [1, 1]),
        (ACCEPT, [1, 1, 1]),  # more ids than the two cores
        (ACCEPT, []),  # no progress with the packet queued
    ],
    ids=[
        "arrival-none", "arrival-string", "arrival-misspelt", "arrival-look-alike", "selection-none",
        "selection-unhashable", "selection-repeat", "selection-over-c", "selection-empty",
    ],
)
def test_malformed_policy_answers_raise_simulation_error(admission, selection):
    # each names the policy and the slot, instead of a bare AttributeError or
    # TypeError, or a silent drop of every packet
    with pytest.raises(SimulationError, match=r"^misbehaving: .* at slot 3$"):
        run(make_trace([(3, [2])]), Answers(admission, selection), 2, 2)


def test_nameless_policy_is_named_after_its_class():
    class Nameless(Policy):
        def on_arrival(self, state, packet):
            return None

    assert run(make_trace([]), Nameless(), 1, 1).policy == "Nameless"
    with pytest.raises(SimulationError, match=r"^Nameless: on_arrival answered None at slot 1$"):
        run(make_trace([(1, [1])]), Nameless(), 1, 1)
