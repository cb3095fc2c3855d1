"""Seeded ON-OFF modulated traffic generation."""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .trace import Trace, _check_int


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
        for arg, least in (("on_count_min", 0), ("on_count_max", 0), ("k", 1)):
            _check_int(arg, getattr(self, arg), least)
        for arg in ("lambda_off", "p_on_to_off", "p_off_to_on"):
            value = getattr(self, arg)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{arg} must be a number, got {value!r}")
        if not (0 < self.p_on_to_off <= 1 and 0 < self.p_off_to_on <= 1):
            raise ValueError("transition probabilities must be in (0, 1]")
        if self.on_count_min > self.on_count_max:
            raise ValueError("on_count_min must not exceed on_count_max")
        if not 0 <= self.lambda_off < float("inf"):  # false for nan too
            raise ValueError(f"lambda_off must be finite and >= 0, got {self.lambda_off}")

    def stationary_rate(self) -> float:
        """Mean packets per slot under the chain's stationary distribution."""
        pi_on = self.p_off_to_on / (self.p_off_to_on + self.p_on_to_off)
        on_rate = (self.on_count_min + self.on_count_max) / 2.0
        return pi_on * on_rate + (1.0 - pi_on) * self.lambda_off

    def stationary_load(self) -> float:
        """Mean required cycles per slot: rate times mean work (k+1)/2."""
        return self.stationary_rate() * (self.k + 1) / 2.0


def _on_off_chain(u, p_up: float, p_down: float):
    """The chain's state in each slot, from one uniform draw per slot.

    From OFF the chain turns ON iff ``u < p_up``; from ON it stays ON iff
    ``u >= p_down``.  Where the two tests agree, the slot resets the state to
    their answer whatever it was; where only the first holds, it flips the
    state; where only the second holds, it holds it.  So the state is the
    last reset's value (OFF before any) XOR the parity of the flips since.
    """
    up, stay = u < p_up, u >= p_down
    flips = np.logical_xor.accumulate(up & ~stay)
    # last[t] is 1 + the slot of the last reset at or before t, 0 before any
    last = np.arange(1, len(u) + 1, dtype=np.int32)
    last[up != stay] = 0
    np.maximum.accumulate(last, out=last)
    return np.concatenate(([False], up ^ flips))[last] ^ flips


def gen_mmpp(params: MmppParams, slots: int, seed: int) -> Trace:
    """Generate ``slots`` slots of ON-OFF modulated traffic, deterministically.

    The chain starts OFF and advances once per slot before that slot's count
    is drawn.  Its states are computed for all slots at once, as array
    operations on one uniform draw per slot.  ``slots`` holds one ``int``
    per arrival slot, repeated by reference for each of its packets, and
    each array temporary is dropped as soon as it has been used.  Metadata
    records the ON-slot tally so tests can check the per-state rates
    without regenerating the chain.
    """
    _check_int("slots", slots)
    _check_int("seed", seed, least=0)
    rng = np.random.default_rng(seed)
    on = _on_off_chain(rng.random(slots), params.p_off_to_on, params.p_on_to_off)
    counts = np.zeros(slots, dtype=np.int64)
    n_on = int(on.sum())
    counts[~on] = rng.poisson(params.lambda_off, slots - n_on)
    counts[on] = rng.integers(params.on_count_min, params.on_count_max + 1, n_on)
    on_arrivals = int(counts[on].sum())
    del on
    works = rng.integers(1, params.k + 1, int(counts.sum())).tolist()
    busy = np.flatnonzero(counts)
    counts = counts[busy]  # frees the per-slot array before the slot list is built

    return Trace(
        slots=np.repeat((busy + 1).astype(object), counts).tolist(),
        works=works,
        k_declared=params.k,
        metadata={
            "generator": "mmpp",
            "seed": int(seed),
            "params": asdict(params),
            "on_slots": n_on,
            "on_arrivals": on_arrivals,
        },
    )
