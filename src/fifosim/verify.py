"""Checks tying the generators, the engine, and the claimed ratios together."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .adversarial import gen_adversarial, reference_accept_mask
from .bounds import bound_value
from .engine import run
from .oracle import offline_opt_bruteforce, replay_accept_mask
from .trace import Trace


@dataclass
class VerificationReport:
    check: str
    params: dict
    claimed: dict
    measured: dict
    tolerance: str
    passed: bool
    details: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "check": self.check,
                "params": self.params,
                "claimed": self.claimed,
                "measured": self.measured,
                "tolerance": self.tolerance,
                "pass": self.passed,
                "details": self.details,
            }
        )

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.check}: claimed={self.claimed} measured={self.measured} ({self.tolerance})"


def verify_construction(
    construction: str,
    B: int,
    k: int | None = None,
    C: int = 1,
    periods: int = 1,
    level: int | None = None,
) -> VerificationReport:
    """Generate one construction, simulate its target, and check the claim.

    The measured ratio compares the comparator's throughput (simulated for
    the policy-vs-policy constructions, the claimed analytic schedule
    otherwise) against the simulated target policy.
    """
    adv = gen_adversarial(construction, B, k=k, C=C, periods=periods, level=level)
    target_total = run(adv.trace, adv.target, B, C).transmitted_count
    if adv.comparator == "reference":
        comp_total = adv.claimed_total["reference"]
    else:
        comp_total = run(adv.trace, adv.comparator, B, C).transmitted_count
    ratio = comp_total / target_total if target_total else math.inf
    claimed_target = adv.claimed_total[adv.target]
    claimed_comp = adv.claimed_total[adv.comparator]
    claimed_ratio = claimed_comp / claimed_target

    name = adv.construction
    measured = {
        adv.target: target_total,
        adv.comparator: comp_total,
        "ratio": round(ratio, 6),
        "per_period_target": round(target_total / adv.periods, 3),
    }
    details: list[str] = []

    if name == "PO_VS_LPO":
        tolerance = "ratio >= claimed - 0.05"
        passed = ratio >= claimed_ratio - 0.05
    elif name == "LPO_VS_PO":
        tolerance = "ratio within 3% of claimed; per-period counts within +-2"
        ok_ratio = abs(ratio - claimed_ratio) <= 0.03 * claimed_ratio
        ok_counts = (
            abs(target_total / adv.periods - adv.claimed[adv.target]) <= 2
            and abs(comp_total / adv.periods - adv.claimed[adv.comparator]) <= 2
        )
        passed = ok_ratio and ok_counts
    elif name == "KGEB":
        tolerance = "per-period target within +-1; ratio within 2% of claimed"
        per = target_total / adv.periods
        passed = abs(per - adv.claimed[adv.target]) <= 1 and abs(
            ratio - claimed_ratio
        ) <= 0.02 * claimed_ratio
        lpo_total = run(adv.trace, "lpo", B, C).transmitted_count
        lpo_ratio = comp_total / lpo_total if lpo_total else math.inf
        measured["lpo"] = lpo_total
        passed = passed and abs(lpo_total / adv.periods - adv.claimed["lpo"]) <= 1
        passed = passed and abs(lpo_ratio - claimed_ratio) <= 0.02 * claimed_ratio
    elif name == "PO_KLTB":
        floor = 0.95 * bound_value("LB_PO_KLTB", k=k, B=B).value
        tolerance = f"ratio >= 0.95 * 2k/(k+1) = {floor:.4f}"
        passed = ratio >= floor
    elif name == "LPO_KLTB":
        floor = 0.95 * bound_value("LB_LPO_KLTB", k=k, B=B).value
        tolerance = f"ratio >= 0.95 * (2k-1)/k = {floor:.4f}"
        passed = ratio >= floor
    elif name == "NPO_TIGHT":
        floor = 0.98 * k
        tolerance = f"ratio >= 0.98 * k = {floor:.4f}"
        passed = ratio >= floor
    else:  # LOG_RECURSIVE
        lvl = 0 if level is None else level
        floor = max(lvl + 0.5, 0.98 * claimed_ratio)
        tolerance = f"ratio >= max(level + 0.5, 0.98 * claimed) = {floor:.4f}"
        passed = ratio >= floor

    if adv.comparator == "reference":
        mask = reference_accept_mask(adv)
        replayed = replay_accept_mask(adv.trace, mask, B, C).transmitted_count
        measured["reference_replayed"] = replayed
        if replayed != adv.claimed_total["reference"]:
            passed = False
            details.append(
                f"reference schedule replay got {replayed}, claimed {adv.claimed_total['reference']}"
            )

    return VerificationReport(
        check=f"{name} B={B} k={k} C={C} periods={periods}"
        + (f" level={level}" if level is not None else ""),
        params=adv.params,
        claimed={**adv.claimed_total, "ratio": round(claimed_ratio, 6)},
        measured=measured,
        tolerance=tolerance,
        passed=passed,
        details=details,
    )


def random_micro_trace(rng: np.random.Generator, max_packets: int = 10, max_slot: int = 10, k: int = 4) -> Trace:
    """Small random trace for oracle-backed property checks."""
    n = int(rng.integers(1, max_packets + 1))
    slots = sorted(int(s) for s in rng.integers(1, max_slot + 1, n))
    works = [int(w) for w in rng.integers(1, k + 1, n)]
    return Trace(slots=slots, works=works, k_declared=k)


def _serialize(trace: Trace) -> str:
    return json.dumps({"k": trace.k_declared, "slots": trace.slots, "works": trace.works})


FIFO_POLICIES = ("npo", "po", "lpo", "lpo_p")


def verify_micro(count: int = 200, seed: int = 0) -> VerificationReport:
    """Random micro instances against the brute-force offline optimum.

    Asserted per instance: every FIFO policy's throughput is at most the
    oracle's; the oracle is at most k times the non-push-out throughput; and
    replaying the oracle's accept mask reproduces its value exactly.  The
    reference policy's relation to the oracle and the log-form upper bound
    are tallied and reported, not asserted.
    """
    failures: list[str] = []
    srpt_below = 0
    ln_bound_misses = 0
    for index in range(count):
        rng = np.random.default_rng(seed + index)  # per-instance seed: seed + index
        B = int(rng.choice([2, 3]))
        k = int(rng.choice([2, 3, 4]))
        trace = random_micro_trace(rng, k=k)
        opt = offline_opt_bruteforce(trace, B, 1)
        throughput = {
            pol: run(trace, pol, B, 1).transmitted_count for pol in FIFO_POLICIES + ("srpt",)
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
        if throughput["lpo"] and opt.throughput > (math.log(k) + 3.5) * throughput["lpo"]:
            ln_bound_misses += 1
        if problems:
            failures.append(
                f"instance {index} (B={B}, k={k}): " + "; ".join(problems) + " | trace=" + _serialize(trace)
            )
    return VerificationReport(
        check=f"micro oracle suite ({count} instances)",
        params={"count": count, "seed": seed, "B": [2, 3], "k": [2, 3, 4], "C": 1},
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


def sweep_reproduction_reports(slots: int = 200_000, runs: int = 5) -> list[VerificationReport]:
    """Stochastic-reproduction checks on the default sweep configurations.

    Runs the k-sweep (B=10, C=1) and C-sweep (k=5, B=10) and checks the
    attainable claims: unit ratios at k=1, eager push-out dominance for
    k >= 2, ratio standard deviation at most 0.05 everywhere, the
    non-push-out/lazy crossover in C, and byte-identical CSV repeatability.
    Takes minutes at the default scale.
    """
    import tempfile

    from .sweep import SweepConfig, sweep, write_results_csv

    def series(table, pol):
        return {a.x: a.mean_ratio for a in table.aggregates if a.policy == pol}

    k_table = sweep(
        SweepConfig(param="k", values=tuple(range(1, 41)), B=10, C=1, slots=slots, runs=runs)
    )
    c_table = sweep(
        SweepConfig(param="C", values=tuple(range(1, 11)), k=5, B=10, slots=slots, runs=runs)
    )
    npo, po, lpo = (series(k_table, p) for p in ("npo", "po", "lpo"))
    at_k1 = min(npo[1], po[1], lpo[1])
    dominance_violations = [k for k in range(2, 41) if po[k] < npo[k] or po[k] < lpo[k]]
    k_report = VerificationReport(
        check="k-sweep reproduction (B=10, C=1)",
        params={"slots": slots, "runs": runs},
        claimed={"k1_ratio_floor": 0.99, "po_dominates": True},
        measured={"k1_min_ratio": round(at_k1, 4), "violations": dominance_violations},
        tolerance="ratios at k=1 >= 0.99; po >= npo and po >= lpo for k >= 2",
        passed=at_k1 >= 0.99 and not dominance_violations,
    )

    max_std = max(a.std_ratio for a in k_table.aggregates + c_table.aggregates)
    std_report = VerificationReport(
        check="ratio standard deviation (default sweep configs)",
        params={"slots": slots, "runs": runs},
        claimed={"max_std": 0.05},
        measured={"max_std": round(max_std, 4)},
        tolerance="population std of every ratio <= 0.05",
        passed=max_std <= 0.05,
    )

    npo_c, lpo_c = series(c_table, "npo"), series(c_table, "lpo")
    crossover = next(
        (c for c in range(1, 11) if all(npo_c[d] >= lpo_c[d] for d in range(c, 11))), None
    )
    cross_report = VerificationReport(
        check="C-sweep crossover (k=5, B=10)",
        params={"slots": slots, "runs": runs},
        claimed={"crossover_at_most": 10},
        measured={"crossover": crossover},
        tolerance="npo >= lpo for every C beyond some C* <= 10",
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
        params={"values": [1, 5, 9], "slots": 20_000, "runs": 2},
        claimed={"identical": True},
        measured={"identical": identical},
        tolerance="two runs of the same config produce identical bytes",
        passed=identical,
    )
    return [k_report, std_report, cross_report, det_report]


def golden_suite(with_sweeps: bool = False) -> list[VerificationReport]:
    """The six deterministic worst-case checks at their acceptance settings.

    With ``with_sweeps`` the stochastic reproduction checks (including the
    std <= 0.05 claim on the default sweep configs) are appended; that takes
    minutes rather than seconds.
    """
    reports = [
        verify_construction("LPO_VS_PO", B=10, k=6, C=1, periods=200),
        verify_construction("PO_VS_LPO", B=10, C=1, periods=200),
        verify_construction("KGEB", B=10, k=10, C=1, periods=100),
        verify_construction("PO_KLTB", B=27, k=3, C=1, periods=20),
        verify_construction("LPO_KLTB", B=20, k=3, C=1, periods=20),
        verify_construction("NPO_TIGHT", B=10, k=5, C=1, periods=1000),
    ]
    log_reports = [
        verify_construction("LOG_RECURSIVE", B=10, C=1, periods=2, level=lvl) for lvl in (0, 1, 2)
    ]
    ratios = [rep.measured["ratio"] for rep in log_reports]
    increasing = all(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1))
    combined = VerificationReport(
        check="LOG_RECURSIVE ratio growth (levels 0..2)",
        params={"B": 10, "levels": [0, 1, 2]},
        claimed={"strictly_increasing": True, "level0_floor": 2.5},
        measured={"ratios": ratios},
        tolerance="ratio(0) >= 2.5; ratio(n) strictly increasing and >= n + 0.5",
        passed=(
            increasing
            and ratios[0] >= 2.5
            and all(r >= lvl + 0.5 for lvl, r in enumerate(ratios))
        ),
    )
    out = reports + log_reports + [combined]
    if with_sweeps:
        out += sweep_reproduction_reports()
    return out


def constructions_suite() -> list[VerificationReport]:
    """A broader parameter matrix over every construction."""
    cases = [
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
    ]
    return [verify_construction(name, **kw) for name, kw in cases]
