"""The three workloads, one pass at a time, through fifosim's public API.

ksweep and csweep make the calls `fifosim sweep` makes: sweep(), then
write_results_csv() and emit_plot_data().  verify makes the calls
`fifosim verify` makes for the golden, constructions and micro suites.
Every pass runs closed-loop: the next one starts when the last has ended.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from collections import defaultdict
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from time import perf_counter

from fifosim import (
    SweepConfig,
    constructions_suite,
    derive_run_seed,
    emit_plot_data,
    golden_suite,
    sweep,
    verify_micro,
    write_results_csv,
)

import tracing

WORKERS = 2  # the pool size users get on the 2-CPU reference machine
GOLDEN_SEEDS = 10  # --seed n runs master seed n mod 10
HOLDOUT_SEED = 10  # kept back for checking later claims: --holdout

# Cells keep the acceptance shape (200 000 slots, default ON-OFF parameters);
# runs per point is cut from 5 to 1 and 2 so that one pass fits a run.
SWEEPS = {
    "ksweep": dict(param="k", values=tuple(range(1, 41)), B=10, C=1,
                   policies=("npo", "po", "lpo"), reference="srpt", runs=1),
    "csweep": dict(param="C", values=tuple(range(1, 11)), k=5, B=10,
                   policies=("npo", "po", "lpo", "lpo_p"), reference="srpt", runs=2),
}
VERIFY_MICRO_COUNT = 2000
WORKLOADS = ("ksweep", "csweep", "verify")

# Warm-up: one cell per worker, covering both ends of the swept range, so the
# pool, every fast loop and both the C = 1 and C > 1 branches have run once.
WARMUP = {"ksweep": dict(values=(1, 40)), "csweep": dict(values=(1, 10), runs=1), "verify": 100}
# Self-test scale: the same calls on traffic small enough to take seconds.
TINY = {"ksweep": dict(values=(1, 2, 7), slots=3000), "csweep": dict(values=(1, 3), slots=3000), "verify": 40}
TINY_WARMUP = {"ksweep": dict(values=(1,), slots=500), "csweep": dict(values=(2,), slots=500, runs=1), "verify": 5}


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    output: object  # ResultTable or list of VerificationReport
    rows: list  # recorder rows: engine counters and oracle results


class Bench:
    """One workload at one master seed, writing its files under ``out_dir``."""

    def __init__(self, name: str, master_seed: int, out_dir: Path, tiny: bool = False):
        self.name = name
        self.master_seed = master_seed
        self.out_dir = out_dir
        self.tiny = tiny
        self.recorder = tracing.Recorder(out_dir / "spool")

    @property
    def is_sweep(self) -> bool:
        return self.name in SWEEPS

    def sweep_config(self, workers: int = WORKERS, warmup: bool = False) -> SweepConfig:
        config = SweepConfig(**SWEEPS[self.name], master_seed=self.master_seed, workers=workers)
        if self.tiny:
            config = replace(config, **TINY[self.name])
        if warmup:
            config = replace(config, **(TINY_WARMUP if self.tiny else WARMUP)[self.name])
        return config

    def micro_count(self, warmup: bool = False) -> int:
        if warmup:
            return (TINY_WARMUP if self.tiny else WARMUP)["verify"]
        return TINY["verify"] if self.tiny else VERIFY_MICRO_COUNT

    def golden_config(self) -> dict:
        """The settings the goldens were recorded under, seed aside."""
        if self.is_sweep:
            config = asdict(self.sweep_config())
            for key in ("master_seed", "workers", "out_csv", "out_plot_prefix"):
                config.pop(key)
            return json.loads(json.dumps(config))
        return {"micro_count": self.micro_count()}

    def run_pass(self, tracer: tracing.Tracer | None = None, workers: int = WORKERS,
                 warmup: bool = False) -> Pass:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.recorder.reset()
        undo = tracing.install(self.recorder, tracer)
        call = tracer.call if tracer is not None else _direct
        try:
            c0 = os.times()
            t0 = perf_counter()
            if self.is_sweep:
                output = call("sweep", sweep, (self.sweep_config(workers, warmup),))
                call("sweep.write", self._write, (output,))
            else:
                output = call("verify", self._verify, (self.micro_count(warmup),))
            wall = perf_counter() - t0
            c1 = os.times()
        finally:
            undo()
        cpu = sum(c1[:4]) - sum(c0[:4])  # user + sys, this process and reaped workers
        return Pass(wall, cpu, output, self.recorder.collect())

    def _write(self, table) -> None:
        write_results_csv(table, self.out_dir / "results.csv")
        emit_plot_data(table, f"{self.out_dir}{os.sep}")

    def _verify(self, count: int):
        # verify_micro seeds instance i with seed + i; spacing the seeds keeps
        # the instance sets of different master seeds disjoint
        seed = self.master_seed * VERIFY_MICRO_COUNT
        return golden_suite() + constructions_suite() + [verify_micro(count=count, seed=seed)]

    def observe(self, p: Pass) -> tuple[dict, list[tuple[str, str]]]:
        """The pass's golden-comparable outputs, and the invariants it broke.

        Problems are (key, message) pairs, keyed like the observation's cells
        or reports so that each one fails the operation it belongs to.
        """
        problems: list[tuple[str, str]] = []
        if not self.is_sweep:
            reports = [[r.check, r.passed, json.loads(json.dumps(r.measured))] for r in p.output]
            for i, r in enumerate(p.output):
                if not r.passed:
                    problems.append((str(i), f"FAIL {r.line()}"))
            rows = json.dumps(p.rows, separators=(",", ":")).encode()
            return {"reports": {str(i): rep for i, rep in enumerate(reports)},
                    "rows_sha256": hashlib.sha256(rows).hexdigest()}, problems
        config = p.output.config
        key_of = {
            derive_run_seed(config.master_seed, pi, r): f"{pi}:{r}"
            for pi in range(len(config.values))
            for r in range(config.runs)
        }
        cells: dict[str, dict] = {key: {} for key in key_of.values()}
        offers: dict[str, set] = defaultdict(set)
        for seed, policy, final, tx, drop, push, adm in p.rows:
            key = key_of.get(seed)
            if key is None:
                problems.append(("rows", f"engine run on a trace with unknown seed {seed}"))
                continue
            cells[key][policy] = [tx, drop, push, adm, final]
            offers[key].add(adm + drop)
            if tx + push != adm:
                problems.append((key, f"{policy}: transmitted {tx} + pushout {push} != admitted {adm}"))
        for key, seen in offers.items():
            if len(seen) != 1:
                problems.append((key, f"policies were offered different packet counts {sorted(seen)}"))
        digest = hashlib.sha256((self.out_dir / "results.csv").read_bytes()).hexdigest()
        return {"results_csv_sha256": digest, "cells": cells}, problems


def packets_offered(rows) -> int:
    """Packet offers summed over every engine run in a pass."""
    return sum(row[6] + row[4] for row in rows if row[0] != "oracle")


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _direct(name, fn, args=(), kwargs=None):
    return fn(*args, **(kwargs or {}))

