"""Parameter sweeps: run every policy and the reference on shared traffic.

Per-run seeds derive from (master seed, point index, run index) through a
``numpy.random.SeedSequence``, so traffic never depends on which policies are
being compared.  The cells run through one ordered map, serial or on a process
pool, so rows come back in canonical order (point-major, run-minor, policies as
listed, reference last) and the result is a pure function of the configuration.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np

from .engine import run
from .policies import POLICY_IDS
from .trace import _check_int
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
    lambda_off: float = MmppParams.lambda_off
    on_count_min: int = MmppParams.on_count_min
    on_count_max: int = MmppParams.on_count_max
    p_on_to_off: float = MmppParams.p_on_to_off
    p_off_to_on: float = MmppParams.p_off_to_on
    workers: int | None = None  # None = one per CPU
    out_csv: str | None = None
    out_plot_prefix: str | None = None

    def __post_init__(self) -> None:
        if self.param not in SWEEPABLE:
            raise ValueError(f"swept parameter must be one of {SWEEPABLE}, got {self.param!r}")
        for arg in ("values", "policies"):
            if not isinstance(getattr(self, arg), tuple):
                raise ValueError(f"{arg} must be a tuple, got {getattr(self, arg)!r}")
        if not self.values:
            raise ValueError("sweep needs a non-empty value range")
        for arg, least in (("slots", 1), ("runs", 1), ("master_seed", 0)):
            _check_int(arg, getattr(self, arg), least)
        if self.workers is not None:
            _check_int("workers", self.workers)
        for value in self.values:
            for arg, x in zip(SWEEPABLE, self.point(value)):
                _check_int(arg, x)
        self.params(self.point(self.values[0])[0])  # raises on bad ON-OFF settings
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"swept values repeat in {self.values}")
        if not self.policies:
            raise ValueError(f"sweep needs at least one policy, got policies={self.policies!r}")
        for pol in self.policies + (self.reference,):
            if pol not in POLICY_IDS:
                raise ValueError(f"unknown policy id {pol!r}")
        if len(set(self.policies)) != len(self.policies):
            raise ValueError(f"policy ids repeat in {self.policies}")

    def params(self, k: int) -> MmppParams:
        """The ON-OFF traffic parameters of every cell with work bound k."""
        return MmppParams(k=k, **{f.name: getattr(self, f.name) for f in fields(MmppParams) if f.name != "k"})

    def point(self, value: int) -> tuple[int, int, int]:
        """(k, B, C) at one swept value."""
        return tuple(value if arg == self.param else getattr(self, arg) for arg in SWEEPABLE)


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


def _run_cell(config: SweepConfig, value: int, seed: int) -> dict[str, int]:
    """Transmitted counts on one trace: the reference first, then each policy."""
    k, B, C = config.point(value)
    trace = gen_mmpp(config.params(k), config.slots, seed)
    return {
        pol: run(trace, pol, B, C, validate=False).transmitted_count
        for pol in dict.fromkeys((config.reference, *config.policies))
    }


def _ratio(transmitted: int, reference: int) -> float:
    if reference == 0:
        if transmitted == 0:
            return 1.0
        raise ValueError("reference transmitted 0 while policy transmitted > 0")
    return transmitted / reference


def sweep(config: SweepConfig) -> ResultTable:
    """Run the sweep and aggregate per-point means and population stds."""
    cells = [
        (value, derive_run_seed(config.master_seed, pi, r))
        for pi, value in enumerate(config.values)
        for r in range(config.runs)
    ]
    workers = config.workers if config.workers is not None else (os.cpu_count() or 1)
    workers = max(1, min(workers, len(cells)))
    if workers == 1:
        counts = [_run_cell(config, value, seed) for value, seed in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(_run_cell, repeat(config), *zip(*cells)))

    table = ResultTable(config=config)
    order = tuple(dict.fromkeys((*config.policies, config.reference)))
    for (value, seed), cell in zip(cells, counts):
        ref = cell[config.reference]
        table.rows += (
            SweepRow(pol, *config.point(value), seed, cell[pol], ref, _ratio(cell[pol], ref)) for pol in order
        )
    width = config.runs * len(order)
    for pi, value in enumerate(config.values):
        point = table.rows[pi * width : (pi + 1) * width]
        for pol in order:
            rows = [row for row in point if row.policy == pol]
            ratios = [row.ratio for row in rows]
            table.aggregates.append(
                SweepAggregate(
                    pol,
                    *config.point(value),
                    x=value,
                    mean_transmitted=float(np.mean([row.transmitted for row in rows])),
                    mean_reference=float(np.mean([row.reference for row in rows])),
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
    paths = {agg.policy: f"{prefix}{agg.policy}.dat" for agg in table.aggregates}
    for pol, path in paths.items():
        with open(path, "w", encoding="utf-8") as fh:
            for agg in sorted((a for a in table.aggregates if a.policy == pol), key=lambda a: a.x):
                fh.write(f"{agg.x} {agg.mean_ratio:.6f} {agg.std_ratio:.6f}\n")
    manifest_path = f"{prefix}manifest.json"
    manifest = {
        "swept": table.config.param,
        "values": list(table.config.values),
        "fixed": {p: getattr(table.config, p) for p in SWEEPABLE if p != table.config.param},
        "slots": table.config.slots,
        "runs": table.config.runs,
        "master_seed": table.config.master_seed,
        "reference": table.config.reference,
        "series": {pol: os.path.basename(path) for pol, path in paths.items()},
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [*paths.values(), manifest_path]
