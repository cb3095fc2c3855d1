"""Statistical checks for the modulated traffic source (fixed seeds)."""

import tracemalloc

import numpy as np
import pytest

from fifosim import MmppParams, derive_run_seed, gen_mmpp, validate_trace


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


def reference_mmpp(params, slots, seed):
    """gen_mmpp with its ON-OFF chain advanced one slot at a time."""
    rng = np.random.default_rng(seed)
    u = rng.random(slots)
    on = np.empty(slots, dtype=bool)
    state = False
    for t in range(slots):
        state = (u[t] < params.p_off_to_on) if not state else (u[t] >= params.p_on_to_off)
        on[t] = state
    counts = np.zeros(slots, dtype=np.int64)
    n_on = int(on.sum())
    counts[~on] = rng.poisson(params.lambda_off, slots - n_on)
    counts[on] = rng.integers(params.on_count_min, params.on_count_max + 1, n_on)
    works = rng.integers(1, params.k + 1, int(counts.sum()))
    return np.repeat(np.arange(1, slots + 1), counts).tolist(), works.tolist(), n_on, int(counts[on].sum())


def test_chain_matches_the_per_slot_loop():
    # random seeds and dwell probabilities, with p = 1, p_off_to_on above
    # p_on_to_off, and p near 0 among them
    rng = np.random.default_rng(7)
    probs = [(1.0, 1.0), (1.0, 0.3), (0.3, 1.0), (0.05, 0.9), (1e-9, 0.5), (0.5, 1e-9), (1e-9, 1e-9)]
    probs += [tuple(float(p) for p in 1.0 - rng.random(2)) for _ in range(13)]
    for p_on_to_off, p_off_to_on in probs:
        params = MmppParams(p_on_to_off=p_on_to_off, p_off_to_on=p_off_to_on, k=int(rng.integers(1, 41)))
        slots, seed = int(rng.integers(1, 3000)), int(rng.integers(0, 2**32))
        trace = gen_mmpp(params, slots, seed)
        meta = trace.metadata
        assert (trace.slots, trace.works, meta["on_slots"], meta["on_arrivals"]) == reference_mmpp(params, slots, seed), params


@pytest.mark.parametrize("point_index, k", [(0, 1), (4, 5), (39, 40)])
def test_sweep_cell_trace_matches_the_reference(point_index, k):
    # the k-sweep's cells at master seed 0, at the acceptance size
    params, seed = MmppParams(k=k), derive_run_seed(0, point_index, 0)
    trace = gen_mmpp(params, 200_000, seed)
    meta = trace.metadata
    assert (trace.slots, trace.works, meta["on_slots"], meta["on_arrivals"]) == reference_mmpp(params, 200_000, seed)
    assert {type(s) for s in trace.slots} == {int}
    # one int object per arrival slot, shared by that slot's packets
    assert len({id(s) for s in trace.slots}) == len(set(trace.slots))


def test_generation_peak_memory():
    # one int object per packet peaked at 13.87 MB; one per arrival slot peaks at 8.8 MB
    tracemalloc.start()
    try:
        gen_mmpp(MmppParams(k=5), 200_000, seed=derive_run_seed(0, 4, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11.5 * 2**20


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
        dict(on_count_min=-1),
        dict(k=0),
        dict(lambda_off=-1.0),
        dict(lambda_off=float("nan")),
        dict(lambda_off=float("inf")),
        dict(k=2.5),
        dict(on_count_min=3.5),
        dict(on_count_max=6.5),
        # a non-number used to escape as TypeError, and True passed as 1
        dict(lambda_off="x"),
        dict(lambda_off=True),
        dict(p_on_to_off=None),
        dict(p_off_to_on="0.05"),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        MmppParams(**kwargs)


def test_slot_count_must_be_positive():
    with pytest.raises(ValueError):
        gen_mmpp(MmppParams(), 0, seed=1)
    with pytest.raises(ValueError, match="slots must be an integer"):
        gen_mmpp(MmppParams(), 10.5, seed=1)


def test_negative_seed_names_the_seed():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        gen_mmpp(MmppParams(), 10, seed=-1)
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        gen_mmpp(MmppParams(), 10, seed=1.5)
