"""Policy decision checks through ``make_policy(<id>)``, one per documented behaviour."""

import pytest

from fifosim import ACCEPT, DROP, BufferState, Packet, UnknownPolicyError, make_policy, push_out
from fifosim.policies import POLICY_IDS


def state_of(residuals, capacity):
    queue = [Packet(i + 1, r) for i, r in enumerate(residuals)]
    return BufferState(capacity=capacity, queue=queue)


def pkt(work, pid=99):
    return Packet(pid, work)


# --- non-push-out admission ---

def test_npo_accepts_when_space():
    assert make_policy("npo").on_arrival(state_of([2, 2, 2], 4), pkt(9)) is ACCEPT


def test_npo_drops_when_full_even_for_light_packet():
    state = state_of([10, 10, 10, 10], 4)
    assert make_policy("npo").on_arrival(state, pkt(1)) is DROP


def test_npo_accepts_into_empty_buffer():
    assert make_policy("npo").on_arrival(state_of([], 1), pkt(5)) is ACCEPT


# --- eager push-out admission ---

def test_po_pushes_out_first_maximal():
    state = state_of([3, 5, 2], 3)
    decision = make_policy("po").on_arrival(state, pkt(4))
    assert decision == push_out(2)  # the 5


def test_po_drop_on_equal_work():
    assert make_policy("po").on_arrival(state_of([3, 5, 2], 3), pkt(5)) is DROP


def test_po_tie_breaks_towards_head():
    decision = make_policy("po").on_arrival(state_of([4, 4, 1], 3), pkt(3))
    assert decision == push_out(1)


def test_po_accepts_when_not_full():
    assert make_policy("po").on_arrival(state_of([9], 2), pkt(9)) is ACCEPT


def test_po_selects_fifo_prefix():
    po = make_policy("po")
    assert po.select_processing(state_of([2, 1, 3], 5), 1) == [1]
    assert po.select_processing(state_of([2, 1, 3], 5), 2) == [1, 2]
    assert po.select_processing(state_of([], 5), 3) == []


# --- lazy push-out ---

def test_lpo_marked_ones_never_pushed_out():
    lpo = make_policy("lpo")
    state = state_of([1, 1], 2)
    lpo.select_processing(state, 1)  # marks both
    assert lpo.on_arrival(state, pkt(1)) is DROP


def test_lpo_drain_mode_pushout_of_unmarked():
    lpo = make_policy("lpo")
    state = state_of([1, 1], 3)
    lpo.select_processing(state, 1)  # marks both, drains packet 1
    state.queue.append(Packet(3, 4))
    decision = lpo.on_arrival(state, pkt(2))
    assert decision == push_out(3)


def test_lpo_fill_skips_single_cycle_packets():
    assert make_policy("lpo").select_processing(state_of([1, 1, 3], 5), 1) == [3]


def test_lpo_marks_and_drains_when_all_single_cycle():
    lpo = make_policy("lpo")
    state = state_of([1, 1], 5)
    assert lpo.select_processing(state, 1) == [1]
    del state.queue[0]  # packet 1 leaves at zero residual
    state.queue.append(Packet(3, 1))  # an unmarked newcomer at one cycle
    assert lpo.select_processing(state, 5) == [2]  # still draining the marked packet


def test_lpo_drain_ignores_unmarked_even_with_idle_cores():
    lpo = make_policy("lpo")
    state = state_of([1, 1], 5)
    lpo.select_processing(state, 1)  # marks both, drains packet 1
    del state.queue[0]
    state.queue.append(Packet(3, 5))
    assert lpo.select_processing(state, 2) == [2]


def test_lpo_drain_reverts_to_fill_when_marked_exhausted():
    lpo = make_policy("lpo")
    state = state_of([1], 5)
    assert lpo.select_processing(state, 1) == [1]  # marks and drains packet 1
    state.queue[:] = [Packet(2, 4), Packet(3, 2)]
    assert lpo.select_processing(state, 1) == [2]


# --- lazy push-out sparing in-process packets ---

def test_lpo_p_skips_in_process_victim():
    lpo_p = make_policy("lpo_p")
    state = state_of([7, 5, 5], 3)
    assert lpo_p.select_processing(state, 1) == [1]
    state.queue[0].residual_work -= 1
    decision = lpo_p.on_arrival(state, pkt(4))
    assert decision == push_out(2)  # first 5, not the 6


def test_lpo_p_drops_when_only_victim_is_in_process():
    lpo_p = make_policy("lpo_p")
    state = state_of([7], 1)
    lpo_p.select_processing(state, 1)
    assert lpo_p.on_arrival(state, pkt(1)) is DROP


def test_lpo_p_accepts_when_space():
    lpo_p = make_policy("lpo_p")
    state = state_of([7], 2)
    lpo_p.select_processing(state, 1)
    assert lpo_p.on_arrival(state, pkt(1)) is ACCEPT


def test_lpo_p_without_in_process_matches_po():
    state = state_of([3, 5, 2], 3)
    assert make_policy("lpo_p").on_arrival(state, pkt(4)) == make_policy("po").on_arrival(state, pkt(4))


# --- shortest-residual reference ---

def test_srpt_processes_smallest_residual():
    assert make_policy("srpt").select_processing(state_of([3, 1, 2], 5), 1) == [2]


def test_srpt_tie_breaks_by_admission_order():
    assert make_policy("srpt").select_processing(state_of([2, 2], 5), 1) == [1]


def test_srpt_selects_c_smallest():
    assert make_policy("srpt").select_processing(state_of([3, 1, 2], 5), 2) == [2, 3]


def test_srpt_admission_strictness():
    assert make_policy("srpt").on_arrival(state_of([9, 9, 9], 3), pkt(9)) is DROP


# --- registry ---

def test_policy_ids_in_class_order():
    # the CLI help and SweepConfig's checks list the ids in this order
    assert POLICY_IDS == ("npo", "po", "lpo", "lpo_p", "srpt")
    assert [make_policy(pid).name for pid in POLICY_IDS] == list(POLICY_IDS)


def test_unknown_policy_id_raises():
    with pytest.raises(UnknownPolicyError):
        make_policy("fifo_magic")


def test_policy_instances_are_fresh_per_call():
    a = make_policy("lpo")
    b = make_policy("lpo")
    assert a is not b
