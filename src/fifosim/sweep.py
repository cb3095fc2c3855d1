"""Parameter sweeps: run every policy and the reference on shared traffic.

Per-run seeds derive from (master seed, point index, run index) through a
``numpy.random.SeedSequence``, so traffic never depends on which policies are
being compared.  Cells may execute in parallel; the table is assembled in
canonical order (point-major, run-minor, policies as listed, reference last)
so the result is a pure function of the configuration.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .engine import run
from .policies import POLICY_IDS
from .traffic import MmppParams, gen_mmpp

SWEEPABLE = ("k", "B", "C")


@dataclass(frozen=True)
class SweepConfig:
    param: str
    values: tuple[int, ...]
    k: int = 5
    B: int = 10
    C: int = 1
    policies: tuple[str, ...] = ("npo", "po", "lpo")
    reference: str = "srpt"
    slots: int = 200_000
    runs: int = 5
    master_seed: int = 0
    lambda_off: float = 0.3
    on_count_min: int = 3
    on_count_max: int = 6
    p_on_to_off: float = 0.2
    p_off_to_on: float = 0.05
    workers: int | None = None  # None = one per CPU
    out_csv: str | None = None
    out_plot_prefix: str | None = None

    def validate(self) -> None:
        if self.param not in SWEEPABLE:
            raise ValueError(f"swept parameter must be one of {SWEEPABLE}, got {self.param!r}")
        if not self.values:
            raise ValueError("sweep needs a non-empty value range")
        if self.slots < 1 or self.runs < 1:
            raise ValueError("slots and runs must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        for value in self.values:
            if min(self.point(value)) < 1:
                raise ValueError(f"k, B and C must be >= 1, got (k, B, C) = {self.point(value)}")
        if len(set(self.policies)) != len(self.policies):
            raise ValueError(f"policy ids repeat in {self.policies}")
        for pol in tuple(self.policies) + (self.reference,):
            if pol not in POLICY_IDS:
                raise ValueError(f"unknown policy id {pol!r}")

    def point(self, value: int) -> tuple[int, int, int]:
        """(k, B, C) at one swept value."""
        fixed = {"k": self.k, "B": self.B, "C": self.C}
        fixed[self.param] = value
        return fixed["k"], fixed["B"], fixed["C"]


@dataclass(frozen=True)
class SweepRow:
    policy: str
    k: int
    B: int
    C: int
    seed: int
    transmitted: int
    reference: int
    ratio: float


@dataclass(frozen=True)
class SweepAggregate:
    policy: str
    k: int
    B: int
    C: int
    x: int  # the swept value
    mean_transmitted: float
    mean_reference: float
    mean_ratio: float
    std_ratio: float


@dataclass
class ResultTable:
    config: SweepConfig
    rows: list[SweepRow] = field(default_factory=list)
    aggregates: list[SweepAggregate] = field(default_factory=list)


def derive_run_seed(master_seed: int, point_index: int, run_index: int) -> int:
    """Stable per-cell traffic seed; independent of the policy list."""
    ss = np.random.SeedSequence((master_seed, point_index, run_index))
    return int(ss.generate_state(1)[0])


def _run_cell(config: SweepConfig, point_index: int, value: int, run_index: int):
    k, B, C = config.point(value)
    seed = derive_run_seed(config.master_seed, point_index, run_index)
    params = MmppParams(
        lambda_off=config.lambda_off,
        on_count_min=config.on_count_min,
        on_count_max=config.on_count_max,
        p_on_to_off=config.p_on_to_off,
        p_off_to_on=config.p_off_to_on,
        k=k,
    )
    trace = gen_mmpp(params, config.slots, seed)
    ref_count = run(trace, config.reference, B, C, validate=False).transmitted_count
    counts = {config.reference: ref_count}
    for pol in config.policies:
        if pol not in counts:
            counts[pol] = run(trace, pol, B, C, validate=False).transmitted_count
    return (point_index, run_index), seed, counts


def _ratio(transmitted: int, reference: int) -> float:
    if reference == 0:
        if transmitted == 0:
            return 1.0
        raise ValueError("reference transmitted 0 while policy transmitted > 0")
    return transmitted / reference


def sweep(config: SweepConfig) -> ResultTable:
    """Run the sweep and aggregate per-point means and population stds."""
    config.validate()
    cells = [
        (pi, value, r)
        for pi, value in enumerate(config.values)
        for r in range(config.runs)
    ]
    workers = config.workers if config.workers is not None else (os.cpu_count() or 1)
    workers = max(1, min(workers, len(cells)))
    results: dict[tuple[int, int], tuple[int, dict]] = {}
    if workers == 1:
        for pi, value, r in cells:
            key, seed, counts = _run_cell(config, pi, value, r)
            results[key] = (seed, counts)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_cell, config, pi, value, r) for pi, value, r in cells]
            for fut in futures:
                key, seed, counts = fut.result()
                results[key] = (seed, counts)

    table = ResultTable(config=config)
    order = tuple(config.policies) + (
        (config.reference,) if config.reference not in config.policies else ()
    )
    for pi, value in enumerate(config.values):
        k, B, C = config.point(value)
        per_policy_ratios: dict[str, list[float]] = {pol: [] for pol in order}
        per_policy_counts: dict[str, list[int]] = {pol: [] for pol in order}
        refs: list[int] = []
        for r in range(config.runs):
            seed, counts = results[(pi, r)]
            ref_count = counts[config.reference]
            refs.append(ref_count)
            for pol in order:
                ratio = _ratio(counts[pol], ref_count)
                table.rows.append(
                    SweepRow(pol, k, B, C, seed, counts[pol], ref_count, ratio)
                )
                per_policy_ratios[pol].append(ratio)
                per_policy_counts[pol].append(counts[pol])
        for pol in order:
            ratios = np.array(per_policy_ratios[pol])
            table.aggregates.append(
                SweepAggregate(
                    policy=pol,
                    k=k,
                    B=B,
                    C=C,
                    x=value,
                    mean_transmitted=float(np.mean(per_policy_counts[pol])),
                    mean_reference=float(np.mean(refs)),
                    mean_ratio=float(np.mean(ratios)),
                    std_ratio=float(np.std(ratios)),  # population std over runs
                )
            )
    return table


def write_results_csv(table: ResultTable, path) -> None:
    """One row per run, then per-point aggregate rows flagged with seed="agg"."""
    lines = ["policy,k,B,C,seed,transmitted,reference,ratio"]
    for row in table.rows:
        lines.append(
            f"{row.policy},{row.k},{row.B},{row.C},{row.seed},"
            f"{row.transmitted},{row.reference},{row.ratio:.6f}"
        )
    for agg in table.aggregates:
        lines.append(
            f"{agg.policy},{agg.k},{agg.B},{agg.C},agg,"
            f"{agg.mean_transmitted:.6f},{agg.mean_reference:.6f},{agg.mean_ratio:.6f}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_plot_data(table: ResultTable, path_prefix) -> list[str]:
    """One whitespace series file per policy (x mean_ratio std_ratio) plus a manifest."""
    if not table.aggregates:
        raise ValueError("table has no aggregates; run sweep() first")
    prefix = str(path_prefix)
    by_policy: dict[str, list[SweepAggregate]] = {}
    for agg in table.aggregates:
        by_policy.setdefault(agg.policy, []).append(agg)
    written: list[str] = []
    series: dict[str, str] = {}
    for pol, aggs in by_policy.items():
        path = f"{prefix}{pol}.dat"
        aggs = sorted(aggs, key=lambda a: a.x)
        with open(path, "w", encoding="utf-8") as fh:
            for agg in aggs:
                fh.write(f"{agg.x} {agg.mean_ratio:.6f} {agg.std_ratio:.6f}\n")
        written.append(path)
        series[pol] = os.path.basename(path)
    manifest_path = f"{prefix}manifest.json"
    manifest = {
        "swept": table.config.param,
        "values": list(table.config.values),
        "fixed": {p: getattr(table.config, p) for p in SWEEPABLE if p != table.config.param},
        "slots": table.config.slots,
        "runs": table.config.runs,
        "master_seed": table.config.master_seed,
        "reference": table.config.reference,
        "series": series,
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(manifest_path)
    return written
