"""Seeded ON-OFF modulated traffic generation."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .trace import Trace


@dataclass(frozen=True)
class MmppParams:
    """ON-OFF modulated Poisson arrivals.

    OFF slots draw a Poisson(lambda_off) packet count; ON slots draw a
    uniform integer count in [on_count_min, on_count_max].  The two-state
    chain advances once per slot.  Works are uniform on [1, k].  Dwell
    defaults give mean ON 5 slots / OFF 20 slots: bursty, overloaded in ON.
    """

    lambda_off: float = 0.3
    on_count_min: int = 3
    on_count_max: int = 6
    p_on_to_off: float = 0.2
    p_off_to_on: float = 0.05
    k: int = 1

    def __post_init__(self):
        if not (0 < self.p_on_to_off <= 1 and 0 < self.p_off_to_on <= 1):
            raise ValueError("transition probabilities must be in (0, 1]")
        if self.on_count_min > self.on_count_max:
            raise ValueError("on_count_min must not exceed on_count_max")
        if self.on_count_min < 0:
            raise ValueError("on_count_min must be >= 0")
        if self.lambda_off < 0:
            raise ValueError("lambda_off must be >= 0")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    def stationary_rate(self) -> float:
        """Mean packets per slot under the chain's stationary distribution."""
        pi_on = self.p_off_to_on / (self.p_off_to_on + self.p_on_to_off)
        on_rate = (self.on_count_min + self.on_count_max) / 2.0
        return pi_on * on_rate + (1.0 - pi_on) * self.lambda_off

    def stationary_load(self) -> float:
        """Mean required cycles per slot: rate times mean work (k+1)/2."""
        return self.stationary_rate() * (self.k + 1) / 2.0


def gen_mmpp(params: MmppParams, slots: int, seed: int) -> Trace:
    """Generate ``slots`` slots of ON-OFF modulated traffic, deterministically.

    The chain starts OFF and advances once per slot before that slot's count
    is drawn.  Metadata records the ON-slot tally so tests can check the
    per-state rates without regenerating the chain.
    """
    if slots < 1:
        raise ValueError(f"slots must be >= 1, got {slots}")
    rng = np.random.default_rng(seed)
    u = rng.random(slots)
    on = np.empty(slots, dtype=bool)
    state = False
    p_up = params.p_off_to_on
    p_down = params.p_on_to_off
    for t in range(slots):
        state = (u[t] < p_up) if not state else (u[t] >= p_down)
        on[t] = state

    counts = np.zeros(slots, dtype=np.int64)
    n_on = int(on.sum())
    counts[~on] = rng.poisson(params.lambda_off, slots - n_on)
    counts[on] = rng.integers(params.on_count_min, params.on_count_max + 1, n_on)
    total = int(counts.sum())
    all_works = rng.integers(1, params.k + 1, total)

    return Trace(
        slots=np.repeat(np.arange(1, slots + 1), counts).tolist(),
        works=all_works.tolist(),
        k_declared=params.k,
        metadata={
            "generator": "mmpp",
            "seed": int(seed),
            "params": asdict(params),
            "slots": int(slots),
            "on_slots": n_on,
            "on_arrivals": int(counts[on].sum()),
        },
    )
