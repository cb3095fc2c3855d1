"""Deterministic worst-case arrival schedules with their claimed throughputs.

Each construction builds one period of arrivals plus the per-period
throughput it forces on its target policy and on the intended reference
schedule.  Periods end with every relevant buffer empty, so tiling a period
``periods`` times scales the claimed counts linearly (the one exception is
NPO_TIGHT, whose ``periods`` argument counts iterations inside a single
sequence; see its builder).

Derived counts and offsets are floored; any inexact division is recorded in
the trace metadata under ``rounding``.  ``AdversarialTrace.reference_mask``
is the accept mask of the analytic reference schedule, which rejects exactly
the construction's heavy works; replaying it gives the claimed reference total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .trace import Trace, _check_int


class ConstructionError(ValueError):
    """Raised when construction parameters violate its preconditions."""


@dataclass
class AdversarialTrace:
    """A generated worst-case trace, its claimed accounting and its reference accept mask."""

    construction: str
    trace: Trace
    claimed: dict[str, float]       # per period (per iteration for NPO_TIGHT)
    claimed_total: dict[str, int]   # over the whole generated trace
    target: str                     # policy id the construction is aimed at
    comparator: str                 # policy id or "reference" (analytic schedule)
    reference_mask: tuple[bool, ...] | None  # one flag per packet; None for a policy comparator


class _Schedule(NamedTuple):
    """What a builder returns: one period of arrivals and its claims."""

    period: dict[int, list[int]]    # slot -> works offered in that slot, in order
    length: int                     # slots per period
    claimed: dict[str, float]       # per-period throughput of each policy
    notes: list[str] = []           # inexact divisions, recorded as "rounding"
    rejects: set[int] | None = None  # works the reference schedule rejects
    claimed_total: dict[str, int] | None = None  # None: one copy per period, claimed times periods


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConstructionError(message)


def _po_vs_lpo(B: int, k: int | None, **_) -> _Schedule:
    # burst of B work-2 packets, then B work-1 packets once the eager policy
    # has finished half the heavy burst; the lazy policy is still holding all
    # of its buffer and captures at most one of the light packets.
    if k is not None:
        _require(k >= 2, "PO_VS_LPO needs k >= 2")
    period = {1: [2] * B, B + 1: [1] * B}
    claimed = {"po": B + B // 2, "lpo": B}
    notes = [] if B % 2 == 0 else ["B/2 floored"]
    return _Schedule(period, 2 * B, claimed, notes)


def _lpo_vs_po(B: int, k: int | None, **_) -> _Schedule:
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
    return _Schedule(period, period_len, claimed, notes)


def _npo_tight(B: int, k: int | None, C: int, periods: int, **_) -> _Schedule:
    # the greedy non-push-out queue is seeded full of work-k packets; each
    # iteration feeds it C fresh work-k packets the moment space frees and
    # k slots of C work-1 packets that it must drop while full.  The closing
    # burst of B refills both buffers.  ``periods`` counts iterations inside
    # this one sequence, so it is generated once and claims its own total.
    _require(k is not None, "NPO_TIGHT needs k")
    _require(k >= 2, "NPO_TIGHT needs k >= 2")
    _require(1 <= C <= B, "NPO_TIGHT needs 1 <= C <= B")
    period: dict[int, list[int]] = {}
    for i in range(1, periods + 1):
        start = (i - 1) * k + 1
        # the seed fills the queue; later, the fresh work-k packets are
        # offered before the overlapping work-1 batch so they take the freed space
        period[start] = [k] * B if i == 1 else [k] * C + [1] * C
        for s in range(start + 1, start + k):
            period[s] = [1] * C
    period[periods * k + 1] = [1] * C
    period[periods * k + 2] = [1] * B
    claimed = {"npo": float(C), "reference": float(k * C)}
    claimed_total = {"npo": periods * C + B, "reference": periods * k * C + B}
    return _Schedule(period, periods * k + 2, claimed, rejects={k}, claimed_total=claimed_total)


def _kgeb(B: int, k: int | None, **_) -> _Schedule:
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
    return _Schedule(period, 2 * B - 2, claimed, rejects={B})


def _po_kltb(B: int, k: int | None, **_) -> _Schedule:
    # heavy prefix plus a light block; geometric light refills land exactly
    # when the reference queue empties, keeping the eager queue full until
    # it is all work-1 packets, then a burst of B that it must drop.
    _require(k is not None, "PO_KLTB needs k")
    _require(2 <= k < B, "PO_KLTB needs 2 <= k < B")
    a0 = (k - 1) * B // k
    heavy = B - a0
    refills: list[int] = []
    power = k * k
    while (k - 1) * B >= power:  # the i-th refill (k-1)*B // k**(i+1) is >= 1
        refills.append((k - 1) * B // power)
        power *= k
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
    notes = ["alpha*B floored"] if (k - 1) * B % k else []
    return _Schedule(period, period_len, claimed, notes, {k})


def _lpo_kltb(B: int, k: int | None, **_) -> _Schedule:
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
    floored = (k - 1) * B % (2 * k)
    notes = ["alpha*B floored; split alpha = beta = (k-1)/(2k)"] if floored else []
    return _Schedule(period, a + b + B, claimed, notes, {k})


def _log_recursive(B: int, k: int | None, level: int | None, **_) -> _Schedule:
    # nested escalation: each level holds one huge head packet plus a ladder
    # of B-1 lights, all heavier than everything in the next level down, so
    # each level's burst evicts the previous ladder wholesale.  At the bottom,
    # work-1 floods are timed inside the window where the head packet's
    # residual has dropped below each remaining ladder light: every flood
    # evicts one light and the eager policy transmits nothing but heads.
    # The ladder works are 2+S..B+S so the reference finishes them, then the
    # floods, before the closing burst of B; sum(2..B) + B <= heavy + 1
    # requires B >= 8.  ``level`` defaults to 0.
    level = 0 if level is None else level
    _require(B >= 8, "LOG_RECURSIVE needs B >= 8")
    # the heavy of each level is the next level's shift
    shifts = [0]
    for _ in range(level + 1):
        shifts.append((B - 1) * (B - 2 + shifts[-1]))
    heavies = shifts[1:]
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
    _require(k is None or k >= heavies[-1], f"LOG_RECURSIVE level {level} needs k >= {heavies[-1]}")
    return _Schedule(period, offset + B, claimed, rejects=set(heavies))


# name -> (builder, target policy it penalises, comparator it is measured against)
_TABLE = {
    "PO_VS_LPO": (_po_vs_lpo, "lpo", "po"),
    "LPO_VS_PO": (_lpo_vs_po, "po", "lpo"),
    "NPO_TIGHT": (_npo_tight, "npo", "reference"),
    "KGEB": (_kgeb, "po", "reference"),
    "PO_KLTB": (_po_kltb, "po", "reference"),
    "LPO_KLTB": (_lpo_kltb, "lpo", "reference"),
    "LOG_RECURSIVE": (_log_recursive, "po", "reference"),
}
CONSTRUCTIONS = tuple(_TABLE)


def gen_adversarial(
    construction: str,
    B: int,
    k: int | None = None,
    C: int = 1,
    periods: int = 1,
    level: int | None = None,
) -> AdversarialTrace:
    """Build a worst-case trace for one construction, tiled ``periods`` times.

    ``k`` may be omitted where the schedule fixes its own works.  B, C,
    ``periods`` and a given ``k`` are ``int``s >= 1 that meet the
    construction's preconditions; ``level`` (an ``int`` >= 0, default 0) is
    LOG_RECURSIVE's recursion depth and refused elsewhere.  All constructions
    except NPO_TIGHT were derived for a single core and refuse C != 1.
    """
    name = construction.upper() if isinstance(construction, str) else None
    if name not in _TABLE:
        raise ConstructionError(
            f"unknown construction {construction!r}; expected one of {', '.join(CONSTRUCTIONS)}"
        )
    for arg, value, least in (("B", B, 1), ("k", k, 1), ("C", C, 1), ("periods", periods, 1), ("level", level, 0)):
        if value is not None or arg not in ("k", "level"):  # k and level may be omitted
            _check_int(arg, value, least, ConstructionError)
    _require(C == 1 or name == "NPO_TIGHT", f"{name} is defined for C = 1 only")
    _require(level is None or name == "LOG_RECURSIVE", f"{name} takes no level")
    build, target, comparator = _TABLE[name]
    sched = build(B=B, k=k, C=C, periods=periods, level=level)
    # a builder that claims its own total has generated the whole sequence
    tiles = 1 if sched.claimed_total else periods
    claimed_total = sched.claimed_total or {pol: int(v) * periods for pol, v in sched.claimed.items()}

    order = sorted(sched.period)
    slots = [c * sched.length + s for c in range(tiles) for s in order for _ in sched.period[s]]
    works = [w for _ in range(tiles) for s in order for w in sched.period[s]]
    meta = {
        "construction": name,
        "B": B,
        "C": C,
        "periods": periods,
        "period_length": sched.length,
        "claimed": sched.claimed,
        "claimed_total": claimed_total,
    }
    if level is not None:
        meta["level"] = level
    if sched.notes:
        meta["rounding"] = sched.notes
    if sched.rejects is not None:
        meta["reference_reject_works"] = sorted(sched.rejects)
    return AdversarialTrace(
        construction=name,
        trace=Trace(
            slots=slots,
            works=works,
            k_declared=max(works),
            metadata={"generator": "adversarial", "seed": 0, "params": meta},
        ),
        claimed=sched.claimed,
        claimed_total=claimed_total,
        target=target,
        comparator=comparator,
        reference_mask=None if sched.rejects is None else tuple(w not in sched.rejects for w in works),
    )
