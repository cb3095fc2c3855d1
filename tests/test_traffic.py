"""Statistical checks for the modulated traffic source (fixed seeds)."""

import numpy as np
import pytest

from fifosim import MmppParams, gen_mmpp, validate_trace


def test_same_seed_reproduces_trace():
    params = MmppParams(k=7)
    a = gen_mmpp(params, 5000, seed=42)
    b = gen_mmpp(params, 5000, seed=42)
    assert (a.slots, a.works) == (b.slots, b.works)


def test_different_seeds_differ():
    params = MmppParams(k=7)
    a, b = gen_mmpp(params, 5000, 1), gen_mmpp(params, 5000, 2)
    assert (a.slots, a.works) != (b.slots, b.works)


def test_generated_trace_validates():
    trace = gen_mmpp(MmppParams(k=5), 20_000, seed=3)
    assert validate_trace(trace) == []
    assert trace.k_declared == 5


def test_on_state_rate_matches_uniform_3_6():
    trace = gen_mmpp(MmppParams(k=1), 200_000, seed=11)
    meta = trace.metadata
    on_mean = meta["on_arrivals"] / meta["on_slots"]
    assert 4.4 <= on_mean <= 4.6
    assert all(w == 1 for w in trace.works)


def test_mean_work_tracks_k():
    trace = gen_mmpp(MmppParams(k=40), 200_000, seed=12)
    assert 19.5 <= float(np.mean(trace.works)) <= 21.5


def test_aggregate_load_matches_stationary_rate():
    params = MmppParams(k=10)
    trace = gen_mmpp(params, 200_000, seed=13)
    total_work = sum(trace.works)
    expected = params.stationary_load() * 200_000
    assert abs(total_work - expected) / expected <= 0.02


def test_dwell_defaults_give_one_fifth_on():
    params = MmppParams()
    pi_on = params.p_off_to_on / (params.p_off_to_on + params.p_on_to_off)
    assert pi_on == pytest.approx(0.2)
    trace = gen_mmpp(params, 200_000, seed=14)
    assert trace.metadata["on_slots"] / 200_000 == pytest.approx(0.2, abs=0.02)


def test_off_rate_poisson_mean():
    trace = gen_mmpp(MmppParams(k=1), 200_000, seed=15)
    meta = trace.metadata
    off_slots = 200_000 - meta["on_slots"]
    off_arrivals = trace.packet_count - meta["on_arrivals"]
    assert off_arrivals / off_slots == pytest.approx(0.3, abs=0.02)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p_on_to_off=0.0),
        dict(p_off_to_on=1.5),
        dict(on_count_min=5, on_count_max=3),
        dict(k=0),
        dict(lambda_off=-1.0),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        MmppParams(**kwargs)


def test_slot_count_must_be_positive():
    with pytest.raises(ValueError):
        gen_mmpp(MmppParams(), 0, seed=1)
