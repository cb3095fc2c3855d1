"""Decision-function checks, one per documented behaviour."""

import pytest

from fifosim import (
    ACCEPT,
    DROP,
    BufferState,
    LpoMode,
    Packet,
    UnknownPolicyError,
    lpo_p_on_arrival,
    lpo_select_processing,
    make_policy,
    npo_on_arrival,
    po_on_arrival,
    po_select_processing,
    srpt_select_processing,
)


def state_of(residuals, capacity, marked=()):
    queue = [
        Packet(i + 1, 1, max(r, 1), r, marked=(i in marked))
        for i, r in enumerate(residuals)
    ]
    return BufferState(capacity=capacity, queue=queue)


def pkt(work, pid=99):
    return Packet(pid, 1, work, work)


# --- non-push-out admission ---

def test_npo_accepts_when_space():
    assert npo_on_arrival(state_of([2, 2, 2], 4), pkt(9)) is ACCEPT


def test_npo_drops_when_full_even_for_light_packet():
    state = state_of([10, 10, 10, 10], 4)
    assert npo_on_arrival(state, pkt(1)) is DROP


def test_npo_accepts_into_empty_buffer():
    assert npo_on_arrival(state_of([], 1), pkt(5)) is ACCEPT


# --- eager push-out admission ---

def test_po_pushes_out_first_maximal():
    state = state_of([3, 5, 2], 3)
    decision = po_on_arrival(state, pkt(4))
    assert decision.is_pushout and decision.victim_id == 2  # the 5


def test_po_drop_on_equal_work():
    assert po_on_arrival(state_of([3, 5, 2], 3), pkt(5)) is DROP


def test_po_tie_breaks_towards_head():
    decision = po_on_arrival(state_of([4, 4, 1], 3), pkt(3))
    assert decision.is_pushout and decision.victim_id == 1


def test_po_accepts_when_not_full():
    assert po_on_arrival(state_of([9], 2), pkt(9)) is ACCEPT


def test_po_selects_fifo_prefix():
    assert po_select_processing(state_of([2, 1, 3], 5), 1) == [1]
    assert po_select_processing(state_of([2, 1, 3], 5), 2) == [1, 2]
    assert po_select_processing(state_of([], 5), 3) == []


# --- lazy push-out ---

def test_lpo_marked_ones_never_pushed_out():
    state = state_of([1, 1], 2, marked={0, 1})
    assert make_policy("lpo").on_arrival(state, pkt(1)) is DROP


def test_lpo_drain_mode_pushout_of_unmarked():
    state = state_of([1, 1, 4], 3, marked={0, 1})
    decision = make_policy("lpo").on_arrival(state, pkt(2))
    assert decision.is_pushout and decision.victim_id == 3


def test_lpo_fill_skips_single_cycle_packets():
    state = state_of([1, 1, 3], 5)
    ids, gate, mode = lpo_select_processing(state, LpoMode.FILL, 1)
    assert ids == [3] and gate is False and mode is LpoMode.FILL


def test_lpo_marks_and_drains_when_all_single_cycle():
    state = state_of([1, 1], 5)
    ids, gate, mode = lpo_select_processing(state, LpoMode.FILL, 1)
    assert mode is LpoMode.DRAIN and gate is True
    assert ids == [1]
    assert all(p.marked for p in state.queue)


def test_lpo_drain_ignores_unmarked_even_with_idle_cores():
    state = state_of([1, 5], 5, marked={0})
    ids, gate, mode = lpo_select_processing(state, LpoMode.DRAIN, 2)
    assert ids == [1] and mode is LpoMode.DRAIN


def test_lpo_drain_reverts_to_fill_when_marked_exhausted():
    state = state_of([4, 2], 5)
    ids, gate, mode = lpo_select_processing(state, LpoMode.DRAIN, 1)
    assert mode is LpoMode.FILL and ids == [1] and gate is False


# --- lazy push-out sparing in-process packets ---

def test_lpo_p_skips_in_process_victim():
    state = state_of([7, 5, 5], 3)
    decision = lpo_p_on_arrival(state, pkt(4), in_process={1})
    assert decision.is_pushout and decision.victim_id == 2  # first 5, not the 7


def test_lpo_p_drops_when_only_victim_is_in_process():
    state = state_of([7], 1)
    assert lpo_p_on_arrival(state, pkt(1), in_process={1}) is DROP


def test_lpo_p_accepts_when_space():
    assert lpo_p_on_arrival(state_of([7], 2), pkt(1), in_process={1}) is ACCEPT


def test_lpo_p_without_in_process_matches_po():
    state = state_of([3, 5, 2], 3)
    assert lpo_p_on_arrival(state, pkt(4), in_process=set()) == po_on_arrival(state, pkt(4))


# --- shortest-residual reference ---

def test_srpt_processes_smallest_residual():
    assert srpt_select_processing(state_of([3, 1, 2], 5), 1) == [2]


def test_srpt_tie_breaks_by_admission_order():
    assert srpt_select_processing(state_of([2, 2], 5), 1) == [1]


def test_srpt_selects_c_smallest():
    assert srpt_select_processing(state_of([3, 1, 2], 5), 2) == [2, 3]


def test_srpt_admission_strictness():
    assert make_policy("srpt").on_arrival(state_of([9, 9, 9], 3), pkt(9)) is DROP


# --- registry ---

def test_unknown_policy_id_raises():
    with pytest.raises(UnknownPolicyError):
        make_policy("fifo_magic")


def test_policy_instances_are_fresh_per_call():
    a = make_policy("lpo")
    b = make_policy("lpo")
    assert a is not b
