"""Closed-form competitive-ratio bounds as functions of (k, B).

Asymptotic correction terms (the o(B)/B and O(1/B) tails) are dropped; the
comment on each formula says so where it applies.
"""

from __future__ import annotations

import math

from .trace import _check_int


def _floor_log(k: int, base: int) -> int:
    # exact integer floor(log_base(k)); float log is off-by-one prone
    if base < 2:
        raise ValueError("log lower bound needs B >= 2")
    e = 0
    power = base
    while power <= k:
        e += 1
        power *= base
    return e


_FORMULAS = {
    # tight bound for the greedy non-push-out policy
    "NPO_TIGHT_K": lambda k, B: float(k),
    # upper bound for the lazy policy; o(B)/B term dropped
    "LPO_UPPER_LN": lambda k, B: math.log(k) + 3.0,
    # upper bound when in-process packets are never pushed out
    "LPO_P_UPPER_LOG2": lambda k, B: math.log2(k) + 3.0 + (B - 1) / B,
    # lower bound for both push-out policies, k >= B
    "LB_PUSHOUT_KGEB": lambda k, B: 2.0 * (B - 1) / B,
    # eager push-out lower bound, k < B
    "LB_PO_KLTB": lambda k, B: 2.0 * k / (k + 1),
    # lazy push-out lower bound, k < B
    "LB_LPO_KLTB": lambda k, B: (2.0 * k - 1) / k,
    # recursive lower bound for large k; O(1/B) term dropped
    "LB_LOG_RECURSIVE": lambda k, B: float(_floor_log(k, B) + 1),
}

BOUND_IDS = tuple(_FORMULAS)


def bound_value(bound_id: str, k: int = 1, B: int = 1) -> float:
    """Evaluate one bound formula; see BOUND_IDS for the available ids."""
    name = bound_id.upper() if isinstance(bound_id, str) else None
    if name not in _FORMULAS:
        raise ValueError(f"unknown bound id {bound_id!r}; expected one of {', '.join(BOUND_IDS)}")
    _check_int("k", k)
    _check_int("B", B)
    return _FORMULAS[name](k, B)
