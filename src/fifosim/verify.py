"""Checks tying the generators, the engine, and the claimed ratios together."""

from __future__ import annotations

import json
import math
import tempfile
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .adversarial import gen_adversarial
from .bounds import bound_value
from .engine import run
from .oracle import offline_opt_bruteforce, replay_accept_mask
from .sweep import ResultTable, SweepConfig, sweep, write_results_csv
from .trace import Trace, _check_int


@dataclass
class VerificationReport:
    check: str
    claimed: dict
    measured: dict
    tolerance: str
    passed: bool
    details: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.check}: claimed={self.claimed} measured={self.measured} ({self.tolerance})"


class _Rule(NamedTuple):
    """A construction's claim; each part left at its default is unbounded.

    The comparator/target ratio is at least ``floor(claimed=, B=, k=, level=)``.
    For every policy with a claimed count, the comparator/policy ratio is within
    ``rel`` times its claimed ratio and the per-period count within ``slack``.
    """

    tolerance: str  # formatted with the floor
    floor: Callable[..., float] = lambda **_: -math.inf
    rel: float = math.inf
    slack: float = math.inf


def _share_of(bound_id: str, share: float) -> Callable[..., float]:
    return lambda k, B, **_: share * bound_value(bound_id, k=k, B=B)


# name -> the claim verify_construction checks, keyed like adversarial's table
_RULES = {
    "PO_VS_LPO": _Rule("ratio >= claimed - 0.05", floor=lambda claimed, **_: claimed - 0.05),
    "LPO_VS_PO": _Rule("ratio within 3% of claimed; per-period counts within +-2", rel=0.03, slack=2),
    "NPO_TIGHT": _Rule("ratio >= 0.98 * k = {:.4f}", floor=_share_of("NPO_TIGHT_K", 0.98)),
    "KGEB": _Rule("per-period target within +-1; ratio within 2% of claimed", rel=0.02, slack=1),
    "PO_KLTB": _Rule("ratio >= 0.95 * 2k/(k+1) = {:.4f}", floor=_share_of("LB_PO_KLTB", 0.95)),
    "LPO_KLTB": _Rule("ratio >= 0.95 * (2k-1)/k = {:.4f}", floor=_share_of("LB_LPO_KLTB", 0.95)),
    "LOG_RECURSIVE": _Rule(
        "ratio >= max(level + 0.5, 0.98 * claimed) = {:.4f}",
        floor=lambda claimed, level, **_: max((level or 0) + 0.5, 0.98 * claimed),
    ),
}


def verify_construction(
    construction: str,
    B: int,
    k: int | None = None,
    C: int = 1,
    periods: int = 1,
    level: int | None = None,
) -> VerificationReport:
    """Generate one construction, simulate its claimed policies, and check its rule.

    The measured ratio compares the comparator's throughput (simulated for
    the policy-vs-policy constructions, the claimed analytic schedule
    otherwise) against the simulated target policy.
    """
    adv = gen_adversarial(construction, B, k=k, C=C, periods=periods, level=level)
    comp = adv.comparator
    # engine runs in this order: target (the one run that validates), comparator, the other claimed policies
    totals = {
        pol: adv.claimed_total[pol] if pol == "reference"
        else run(adv.trace, pol, B, C, validate=pol == adv.target).transmitted_count
        for pol in dict.fromkeys((adv.target, comp, *adv.claimed))
    }
    ratios = {pol: totals[comp] / n if n else math.inf for pol, n in totals.items() if pol != comp}
    claimed_ratios = {pol: adv.claimed_total[comp] / adv.claimed_total[pol] for pol in ratios}
    ratio, claimed_ratio = ratios[adv.target], claimed_ratios[adv.target]
    measured = {
        adv.target: totals[adv.target],
        comp: totals[comp],
        "ratio": round(ratio, 6),
        "per_period_target": round(totals[adv.target] / periods, 3),
        **totals,  # target and comparator keep their places; the other policies follow
    }
    details: list[str] = []

    rule = _RULES[adv.construction]
    floor = rule.floor(claimed=claimed_ratio, B=B, k=k, level=level)
    passed = (
        ratio >= floor
        and all(abs(ratios[pol] - claimed_ratios[pol]) <= rule.rel * claimed_ratios[pol] for pol in ratios)
        and all(abs(totals[pol] / periods - adv.claimed[pol]) <= rule.slack for pol in adv.claimed)
    )

    if comp == "reference":
        replayed = replay_accept_mask(adv.trace, adv.reference_mask, B, C).transmitted_count
        measured["reference_replayed"] = replayed
        if replayed != adv.claimed_total["reference"]:
            passed = False
            details.append(
                f"reference schedule replay got {replayed}, claimed {adv.claimed_total['reference']}"
            )

    return VerificationReport(
        check=f"{adv.construction} B={B} k={k} C={C} periods={periods}"
        + (f" level={level}" if level is not None else ""),
        claimed={**adv.claimed_total, "ratio": round(claimed_ratio, 6)},
        measured=measured,
        tolerance=rule.tolerance.format(floor),
        passed=passed,
        details=details,
    )


_MICRO_MAX_PACKETS = _MICRO_MAX_SLOT = 10


def random_micro_trace(rng: np.random.Generator, k: int = 4) -> Trace:
    """Small random trace for oracle-backed property checks."""
    n = int(rng.integers(1, _MICRO_MAX_PACKETS + 1))
    slots = sorted(rng.integers(1, _MICRO_MAX_SLOT + 1, n).tolist())
    return Trace(slots=slots, works=rng.integers(1, k + 1, n).tolist(), k_declared=k)


def _serialize(trace: Trace) -> str:
    return json.dumps({"k": trace.k_declared, "slots": trace.slots, "works": trace.works})


FIFO_POLICIES = ("npo", "po", "lpo", "lpo_p")


def verify_micro(count: int = 200, seed: int = 0) -> VerificationReport:
    """Random micro instances against the brute-force offline optimum.

    Asserted per instance: every FIFO policy's throughput is at most the
    oracle's; the oracle is at most k times the non-push-out throughput; and
    replaying the oracle's accept mask reproduces its value exactly.  The
    reference policy's relation to the oracle and the log-form upper bound
    are tallied and reported, not asserted.  A ``count`` that is not an
    ``int`` >= 1, or a ``seed`` that is not an ``int`` >= 0, raises ``ValueError``.
    """
    _check_int("count", count)
    _check_int("seed", seed, least=0)
    failures: list[str] = []
    srpt_below = 0
    ln_bound_misses = 0
    for index in range(count):
        rng = np.random.default_rng(seed + index)  # per-instance seed: seed + index
        B = (2, 3)[rng.integers(2)]  # the draws of rng.choice([2, 3]) and rng.choice([2, 3, 4]), cheaper
        k = (2, 3, 4)[rng.integers(3)]
        trace = random_micro_trace(rng, k=k)
        opt = offline_opt_bruteforce(trace, B, 1)
        throughput = {  # the oracle's entry check has validated this trace
            pol: run(trace, pol, B, 1, validate=False).transmitted_count for pol in FIFO_POLICIES + ("srpt",)
        }
        replayed = replay_accept_mask(trace, opt.accept_mask, B, 1).transmitted_count
        problems = []
        for pol in FIFO_POLICIES:
            if throughput[pol] > opt.throughput:
                problems.append(f"{pol}={throughput[pol]} exceeds oracle {opt.throughput}")
        if opt.throughput > k * throughput["npo"]:
            problems.append(f"oracle {opt.throughput} exceeds k*npo = {k}*{throughput['npo']}")
        if replayed != opt.throughput:
            problems.append(f"mask replay {replayed} != oracle {opt.throughput}")
        if throughput["srpt"] < opt.throughput:
            srpt_below += 1
        ln_bound = bound_value("LPO_UPPER_LN", k=k) + 0.5
        if throughput["lpo"] and opt.throughput > ln_bound * throughput["lpo"]:
            ln_bound_misses += 1
        if problems:
            failures.append(
                f"instance {index} (B={B}, k={k}): " + "; ".join(problems) + " | trace=" + _serialize(trace)
            )
    return VerificationReport(
        check=f"micro oracle suite ({count} instances)",
        claimed={"violations": 0},
        measured={
            "violations": len(failures),
            "srpt_below_oracle": srpt_below,
            "ln_bound_misses": ln_bound_misses,
        },
        tolerance="fifo <= oracle, oracle <= k*npo, exact mask replay",
        passed=not failures,
        details=failures[:5],
    )


# the acceptance sweeps: 40 k-points and 10 C-points, 200 000 slots, 5 runs each
K_SWEEP = SweepConfig(param="k", values=tuple(range(1, 41)), B=10, C=1)
C_SWEEP = SweepConfig(param="C", values=tuple(range(1, 11)), k=5, B=10)


def sweep_reproduction_reports(k_table: ResultTable, c_table: ResultTable) -> list[VerificationReport]:
    """Stochastic-reproduction checks on a k-sweep and a C-sweep table.

    Checks the attainable claims: unit ratios at k=1, eager push-out
    dominance for k >= 2, ratio standard deviation at most 0.05 over both
    tables, the non-push-out/lazy crossover in C, and byte-identical CSV
    repeatability of a small sweep run twice.  The tables normally come
    from ``K_SWEEP`` and ``C_SWEEP``, which take minutes.
    """

    def series(table, pol):
        return {a.x: a.mean_ratio for a in table.aggregates if a.policy == pol}

    kc, cc = k_table.config, c_table.config
    npo, po, lpo = (series(k_table, p) for p in ("npo", "po", "lpo"))
    at_k1 = min(npo[1], po[1], lpo[1])
    dominance_violations = [k for k in kc.values if k >= 2 and (po[k] < npo[k] or po[k] < lpo[k])]
    k_report = VerificationReport(
        check=f"k-sweep reproduction (B={kc.B}, C={kc.C})",
        claimed={"k1_ratio_floor": 0.99, "po_dominates": True},
        measured={"k1_min_ratio": round(at_k1, 4), "violations": dominance_violations},
        tolerance="ratios at k=1 >= 0.99; po >= npo and po >= lpo for k >= 2",
        passed=at_k1 >= 0.99 and not dominance_violations,
    )

    max_std = max(a.std_ratio for a in k_table.aggregates + c_table.aggregates)
    std_report = VerificationReport(
        check="ratio standard deviation (default sweep configs)",
        claimed={"max_std": 0.05},
        measured={"max_std": round(max_std, 4)},
        tolerance="population std of every ratio <= 0.05",
        passed=max_std <= 0.05,
    )

    npo_c, lpo_c = series(c_table, "npo"), series(c_table, "lpo")
    crossover = next(
        (c for i, c in enumerate(cc.values) if all(npo_c[d] >= lpo_c[d] for d in cc.values[i:])), None
    )
    cross_report = VerificationReport(
        check=f"C-sweep crossover (k={cc.k}, B={cc.B})",
        claimed={"crossover_at_most": max(cc.values)},
        measured={"crossover": crossover},
        tolerance=f"npo >= lpo for every C beyond some C* <= {max(cc.values)}",
        passed=crossover is not None,
    )

    config = SweepConfig(param="k", values=(1, 5, 9), B=10, C=1, slots=20_000, runs=2, master_seed=7)
    with tempfile.TemporaryDirectory() as tmp:
        a_path, b_path = f"{tmp}/a.csv", f"{tmp}/b.csv"
        write_results_csv(sweep(config), a_path)
        write_results_csv(sweep(config), b_path)
        identical = open(a_path, "rb").read() == open(b_path, "rb").read()
    det_report = VerificationReport(
        check="sweep determinism (byte-identical CSV)",
        claimed={"identical": True},
        measured={"identical": identical},
        tolerance="two runs of the same config produce identical bytes",
        passed=identical,
    )
    return [k_report, std_report, cross_report, det_report]


# the settings each suite checks, in the order it reports them
GOLDEN_CASES = (
    ("LPO_VS_PO", dict(B=10, k=6, C=1, periods=200)),
    ("PO_VS_LPO", dict(B=10, C=1, periods=200)),
    ("KGEB", dict(B=10, k=10, C=1, periods=100)),
    ("PO_KLTB", dict(B=27, k=3, C=1, periods=20)),
    ("LPO_KLTB", dict(B=20, k=3, C=1, periods=20)),
    ("NPO_TIGHT", dict(B=10, k=5, C=1, periods=1000)),
    *(("LOG_RECURSIVE", dict(B=10, C=1, periods=2, level=lvl)) for lvl in (0, 1, 2)),
)
CONSTRUCTION_CASES = (
    ("PO_VS_LPO", dict(B=6, periods=50)),
    ("PO_VS_LPO", dict(B=16, periods=50)),
    ("LPO_VS_PO", dict(B=8, k=5, periods=50)),
    ("LPO_VS_PO", dict(B=20, k=11, periods=50)),
    ("KGEB", dict(B=5, k=5, periods=50)),
    ("KGEB", dict(B=20, k=25, periods=50)),
    ("PO_KLTB", dict(B=40, k=2, periods=10)),
    ("PO_KLTB", dict(B=40, k=5, periods=10)),
    ("LPO_KLTB", dict(B=24, k=4, periods=10)),
    ("LPO_KLTB", dict(B=40, k=2, periods=10)),
    ("NPO_TIGHT", dict(B=8, k=4, C=2, periods=500)),
    ("NPO_TIGHT", dict(B=10, k=10, C=1, periods=800)),
    ("LOG_RECURSIVE", dict(B=8, periods=2, level=0)),
    ("LOG_RECURSIVE", dict(B=12, periods=2, level=1)),
)


def golden_suite() -> list[VerificationReport]:
    """The GOLDEN_CASES checks, then the LOG_RECURSIVE growth check over their levels."""
    reports = [verify_construction(name, **kw) for name, kw in GOLDEN_CASES]
    levels = [kw["level"] for name, kw in GOLDEN_CASES if name == "LOG_RECURSIVE"]
    ratios = [rep.measured["ratio"] for rep in reports if rep.check.startswith("LOG_RECURSIVE")]
    increasing = all(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1))
    combined = VerificationReport(
        check=f"LOG_RECURSIVE ratio growth (levels {levels[0]}..{levels[-1]})",
        claimed={"strictly_increasing": True, "level0_floor": 2.5},
        measured={"ratios": ratios},
        tolerance="ratio(0) >= 2.5; ratio(n) strictly increasing and >= n + 0.5",
        passed=(
            increasing
            and ratios[0] >= 2.5
            and all(r >= lvl + 0.5 for lvl, r in zip(levels, ratios))
        ),
    )
    return reports + [combined]


def constructions_suite() -> list[VerificationReport]:
    """A broader parameter matrix over every construction: the CONSTRUCTION_CASES checks."""
    return [verify_construction(name, **kw) for name, kw in CONSTRUCTION_CASES]
