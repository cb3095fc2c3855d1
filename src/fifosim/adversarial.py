"""Deterministic worst-case arrival schedules with their claimed throughputs.

Each construction builds one period of arrivals plus the per-period
throughput it forces on its target policy and on the intended reference
schedule.  Periods end with every relevant buffer empty, so tiling a period
``periods`` times scales the claimed counts linearly (the one exception is
NPO_TIGHT, whose ``periods`` argument counts iterations inside a single
sequence; see its builder).

Derived counts and offsets are floored; any inexact division is recorded in
the trace metadata under ``rounding``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trace import Trace


class ConstructionError(ValueError):
    """Raised when construction parameters violate its preconditions."""


@dataclass
class AdversarialTrace:
    """A generated worst-case trace plus its claimed per-period accounting."""

    construction: str
    params: dict
    trace: Trace
    period_length: int
    periods: int
    claimed: dict[str, float]       # per period (per iteration for NPO_TIGHT)
    claimed_total: dict[str, int]   # over the whole generated trace
    target: str                     # policy id the construction is aimed at
    comparator: str                 # policy id or "reference" (analytic schedule)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConstructionError(message)


def _po_vs_lpo(B: int, k: int | None):
    # burst of B work-2 packets, then B work-1 packets once the eager policy
    # has finished half the heavy burst; the lazy policy is still holding all
    # of its buffer and captures at most one of the light packets.
    _require(B >= 1, "PO_VS_LPO needs B >= 1")
    if k is not None:
        _require(k >= 2, "PO_VS_LPO needs k >= 2")
    period = {1: [2] * B, B + 1: [1] * B}
    claimed = {"po": B + B // 2, "lpo": B}
    notes = [] if B % 2 == 0 else ["B/2 floored"]
    return period, 2 * B, claimed, 2, notes, None


def _lpo_vs_po(B: int, k: int | None):
    # after a shared work-2 burst the eager policy takes heavy work-k packets
    # that the lazy policy's full buffer rejects; the heavies then clog the
    # eager queue while two light waves and a final burst feed the lazy one.
    _require(k is not None, "LPO_VS_PO needs k")
    _require(B >= 2, "LPO_VS_PO needs B >= 2")
    _require(2 * k > B, "LPO_VS_PO needs k > B/2")
    half = B // 2
    period_len = 3 * B + half
    period = {
        1: [2] * B,
        B: [k] * half,
        2 * B: [1] * half,
        2 * B + half + 1: [1] * B,
    }
    claimed = {"lpo": 2 * B + half, "po": 2 * B}
    notes = [] if B % 2 == 0 else ["B/2 floored"]
    return period, period_len, claimed, k, notes, None


def _npo_tight(B: int, k: int | None, C: int, iterations: int):
    # the greedy non-push-out queue is seeded full of work-k packets; each
    # iteration feeds it C fresh work-k packets the moment space frees and
    # k slots of C work-1 packets that it must drop while full.  The closing
    # burst of B refills both buffers.
    _require(k is not None, "NPO_TIGHT needs k")
    _require(k >= 2, "NPO_TIGHT needs k >= 2")
    _require(B >= C, "NPO_TIGHT needs B >= C")
    _require(iterations >= 1, "NPO_TIGHT needs at least one iteration")
    period: dict[int, list[int]] = {1: [k] * B}
    for i in range(2, iterations + 1):
        start = (i - 1) * k + 1
        # the fresh work-k packets are offered before the overlapping
        # work-1 batch so they take the freed space
        period[start] = [k] * C + [1] * C
    for i in range(1, iterations + 1):
        start = (i - 1) * k + 1
        for s in range(start + 1, start + k):
            period.setdefault(s, []).extend([1] * C)
    period[iterations * k + 1] = [1] * C
    period[iterations * k + 2] = [1] * B
    claimed = {"npo": float(C), "reference": float(k * C)}
    claimed_total = {"npo": iterations * C + B, "reference": iterations * k * C + B}
    return period, iterations * k + 2, claimed, claimed_total


def _kgeb(B: int, k: int | None):
    # one work-B packet pins the head of the queue while singles trickle in;
    # the burst at slot B-1 arrives when only one space ever frees.  B = 2
    # collapses the whole schedule into slot 1, so it is excluded.
    _require(B >= 3, "KGEB needs B >= 3")
    _require(k is not None and k >= B, "KGEB needs k >= B")
    period: dict[int, list[int]] = {1: [B, 1]}
    for s in range(2, B - 1):
        period[s] = [1]
    period.setdefault(B - 1, []).extend([1] * B)
    claimed = {"po": B, "lpo": B, "reference": 2 * B - 2}
    return period, 2 * B - 2, claimed, B, [], {B}


def _po_kltb(B: int, k: int | None):
    # heavy prefix plus a light block; geometric light refills land exactly
    # when the reference queue empties, keeping the eager queue full until
    # it is all work-1 packets, then a burst of B that it must drop.
    _require(k is not None, "PO_KLTB needs k")
    _require(2 <= k < B, "PO_KLTB needs 2 <= k < B")
    a0 = (k - 1) * B // k
    heavy = B - a0
    refills: list[int] = []
    i = 1
    while True:
        n_i = (k - 1) * B // k ** (i + 1)
        if n_i < 1:
            break
        refills.append(n_i)
        i += 1
    period: dict[int, list[int]] = {1: [k] * heavy + [1] * a0}
    slot = 1 + a0
    for n_i in refills:
        period[slot] = [1] * n_i
        slot += n_i
    reference_empty = a0 + sum(refills)
    burst_slot = max(heavy * k, reference_empty) + 1
    period[burst_slot] = [1] * B
    period_len = burst_slot + B - 1
    claimed = {"po": heavy + B, "reference": a0 + sum(refills) + B}
    notes = []
    if (k - 1) * B % k:
        notes.append("alpha*B floored")
    return period, period_len, claimed, k, notes, {k}


def _lpo_kltb(B: int, k: int | None):
    # heavy prefix plus lights; a second light wave pushes heavies out of the
    # full lazy buffer while fill processing converts the rest, so the final
    # burst of B meets a buffer of work-1 packets and is dropped entirely.
    _require(k is not None, "LPO_KLTB needs k")
    _require(2 <= k < B, "LPO_KLTB needs 2 <= k < B")
    a = (k - 1) * B // (2 * k)
    _require(a >= 1, "LPO_KLTB needs (k-1)*B >= 2*k")
    b = a
    heavy = B - a
    period = {
        1: [k] * heavy + [1] * a,
        a + 1: [1] * b,
        a + b + 1: [1] * B,
    }
    claimed = {"lpo": B, "reference": a + b + B}
    notes = []
    if (k - 1) * B % (2 * k):
        notes.append("alpha*B floored; split alpha = beta = (k-1)/(2k)")
    return period, a + b + B, claimed, k, notes, {k}


def _log_recursive(B: int, level: int):
    # nested escalation: each level holds one huge head packet plus a ladder
    # of B-1 lights, all heavier than everything in the next level down, so
    # each level's burst evicts the previous ladder wholesale.  At the bottom,
    # work-1 floods are timed inside the window where the head packet's
    # residual has dropped below each remaining ladder light: every flood
    # evicts one light and the eager policy transmits nothing but heads.
    # The ladder works are 2+S..B+S so the reference finishes them, then the
    # floods, before the closing burst of B; sum(2..B) + B <= heavy + 1
    # requires B >= 8.
    _require(B >= 8, "LOG_RECURSIVE needs B >= 8")
    _require(level >= 0, "LOG_RECURSIVE needs level >= 0")
    shifts = []
    shift = 0
    for _ in range(level + 1):
        shifts.append(shift)
        shift = (B - 1) * (B - 2 + shift)
    heavies = [(B - 1) * (B - 2 + s) for s in shifts]
    period: dict[int, list[int]] = {}
    offset = 0
    for j in range(level, -1, -1):
        period[offset + 1] = [heavies[j]] + [w + shifts[j] for w in range(B, 1, -1)]
        offset += heavies[j]
    h0 = heavies[0]
    base = offset - h0
    for w in range(B, 1, -1):
        # the head's residual is w-1 here, so the arriving 1 evicts the
        # work-w light and never the head
        period[base + h0 + 2 - w] = [1]
    period[offset + 1] = [1] * B
    claimed = {
        "po": B + level + 1,
        "reference": level * (B - 1) + 3 * B - 2,
    }
    return period, offset + B, claimed, heavies[-1], [], set(heavies)


CONSTRUCTIONS = (
    "PO_VS_LPO",
    "LPO_VS_PO",
    "NPO_TIGHT",
    "KGEB",
    "PO_KLTB",
    "LPO_KLTB",
    "LOG_RECURSIVE",
)

# (target policy the construction penalises, comparator it is measured against)
_TARGETS = {
    "PO_VS_LPO": ("lpo", "po"),
    "LPO_VS_PO": ("po", "lpo"),
    "NPO_TIGHT": ("npo", "reference"),
    "KGEB": ("po", "reference"),
    "PO_KLTB": ("po", "reference"),
    "LPO_KLTB": ("lpo", "reference"),
    "LOG_RECURSIVE": ("po", "reference"),
}


def gen_adversarial(
    construction: str,
    B: int,
    k: int | None = None,
    C: int = 1,
    periods: int = 1,
    level: int | None = None,
) -> AdversarialTrace:
    """Build a worst-case trace for one construction, tiled ``periods`` times.

    ``k`` may be omitted where the schedule fixes its own works; when given
    it must satisfy the construction's precondition.  ``level`` selects the
    recursion depth of LOG_RECURSIVE (default 0).  All constructions except
    NPO_TIGHT were derived for a single core and refuse C != 1.
    """
    name = construction.upper()
    if name not in CONSTRUCTIONS:
        raise ConstructionError(
            f"unknown construction {construction!r}; expected one of {', '.join(CONSTRUCTIONS)}"
        )
    _require(B >= 1, "B must be >= 1")
    _require(C >= 1, "C must be >= 1")
    _require(periods >= 1, "periods must be >= 1")
    if name != "NPO_TIGHT":
        _require(C == 1, f"{name} is defined for C = 1 only")

    notes: list[str] = []
    if name == "PO_VS_LPO":
        period, period_len, claimed, nat_k, notes, rejects = _po_vs_lpo(B, k)
    elif name == "LPO_VS_PO":
        period, period_len, claimed, nat_k, notes, rejects = _lpo_vs_po(B, k)
    elif name == "KGEB":
        period, period_len, claimed, nat_k, notes, rejects = _kgeb(B, k)
    elif name == "PO_KLTB":
        period, period_len, claimed, nat_k, notes, rejects = _po_kltb(B, k)
    elif name == "LPO_KLTB":
        period, period_len, claimed, nat_k, notes, rejects = _lpo_kltb(B, k)
    elif name == "LOG_RECURSIVE":
        lvl = 0 if level is None else level
        period, period_len, claimed, nat_k, notes, rejects = _log_recursive(B, lvl)
        _require(k is None or k >= nat_k, f"LOG_RECURSIVE level {lvl} needs k >= {nat_k}")
    else:  # NPO_TIGHT: periods counts iterations inside one sequence
        period, period_len, claimed, claimed_total = _npo_tight(B, k, C, periods)
        trace = _tile(period, period_len, 1, k, name, B, C, periods, level, claimed, claimed_total, notes, {k})
        return AdversarialTrace(
            construction=name,
            params={"B": B, "k": k, "C": C, "iterations": periods},
            trace=trace,
            period_length=period_len,
            periods=periods,
            claimed=claimed,
            claimed_total=claimed_total,
            target="npo",
            comparator="reference",
        )

    claimed_total = {pol: int(v) * periods for pol, v in claimed.items()}
    declared_k = nat_k
    trace = _tile(period, period_len, periods, declared_k, name, B, C, periods, level, claimed, claimed_total, notes, rejects)
    target, comparator = _TARGETS[name]
    return AdversarialTrace(
        construction=name,
        params={"B": B, "k": k, "C": C, "periods": periods, "level": level},
        trace=trace,
        period_length=period_len,
        periods=periods,
        claimed=claimed,
        claimed_total=claimed_total,
        target=target,
        comparator=comparator,
    )


def reference_accept_mask(adv: AdversarialTrace) -> tuple[bool, ...] | None:
    """Accept mask of the claimed reference schedule, when one exists.

    The reference rejects exactly the construction's heavy works and accepts
    everything else; replaying this mask through the engine must reproduce
    ``claimed_total["reference"]``.
    """
    rejects = adv.trace.metadata.get("params", {}).get("reference_reject_works")
    if rejects is None:
        return None
    reject_set = set(rejects)
    return tuple(work not in reject_set for work in adv.trace.works)


def _tile(period, period_len, copies, declared_k, name, B, C, periods, level, claimed, claimed_total, notes, rejects=None):
    order = sorted(period)
    slots = [copy * period_len + s for copy in range(copies) for s in order for _ in period[s]]
    works = [w for _ in range(copies) for s in order for w in period[s]]
    params = {
        "construction": name,
        "B": B,
        "C": C,
        "periods": periods,
        "period_length": period_len,
        "claimed": claimed,
        "claimed_total": claimed_total,
    }
    if level is not None:
        params["level"] = level
    if notes:
        params["rounding"] = notes
    if rejects is not None:
        params["reference_reject_works"] = sorted(rejects)
    return Trace(
        slots=slots,
        works=works,
        k_declared=declared_k if declared_k else max(works, default=0),
        metadata={"generator": "adversarial", "seed": 0, "params": params},
    )
