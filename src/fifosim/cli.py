"""Command-line runner: simulate, gen, sweep, verify, bounds.

Exit codes: 0 success (all checks PASS for verify), 1 verification FAIL,
2 usage error (bad flags, unreadable or unwritable files, invalid parameters).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .adversarial import CONSTRUCTIONS, gen_adversarial
from .bounds import BOUND_IDS, bound_value
from .engine import run
from .policies import POLICY_IDS
from .sweep import SWEEPABLE, SweepConfig, emit_plot_data, sweep, write_results_csv
from .trace import _check_int, read_trace, write_trace
from .traffic import MmppParams, gen_mmpp
from .verify import C_SWEEP, K_SWEEP, constructions_suite, golden_suite, sweep_reproduction_reports, verify_micro


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fifosim",
        description="FIFO buffer-management policy simulator and verification suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one policy over a trace file")
    sim.add_argument("--trace", required=True, help="JSON-lines trace file")
    sim.add_argument("--policy", required=True, help=f"one of {', '.join(POLICY_IDS)}")
    sim.add_argument("--buffer", type=int, required=True, help="buffer capacity B")
    sim.add_argument("--cores", type=int, default=1, help="processing cores C")
    sim.add_argument("--events", action="store_true", help="print the per-slot event log")
    sim.set_defaults(handler=_cmd_simulate)

    gen = sub.add_parser("gen", help="generate a trace file")
    kind = gen.add_mutually_exclusive_group(required=True)
    kind.add_argument("--construction", help=f"one of {', '.join(CONSTRUCTIONS)}")
    kind.add_argument("--mmpp", action="store_true", help="ON-OFF modulated traffic")
    gen.add_argument("--buffer", type=int, help="buffer capacity B (constructions)")
    gen.add_argument("--k", type=int, help="max required work")
    gen.add_argument("--cores", type=int, default=1)
    gen.add_argument("--periods", type=int, default=1)
    gen.add_argument("--level", type=int, help="LOG_RECURSIVE recursion depth")
    gen.add_argument("--slots", type=int, help="slots to generate (mmpp)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--lambda-off", type=float, default=MmppParams.lambda_off)
    # dest names the MmppParams field; metavar names the flag in --help
    gen.add_argument("--on-min", type=int, default=MmppParams.on_count_min, dest="on_count_min", metavar="ON_MIN")
    gen.add_argument("--on-max", type=int, default=MmppParams.on_count_max, dest="on_count_max", metavar="ON_MAX")
    gen.add_argument("--p-on-off", type=float, default=MmppParams.p_on_to_off, dest="p_on_to_off", metavar="P_ON_OFF")
    gen.add_argument("--p-off-on", type=float, default=MmppParams.p_off_to_on, dest="p_off_to_on", metavar="P_OFF_ON")
    gen.add_argument("--out", required=True, help="output trace path")
    gen.set_defaults(handler=_cmd_gen)

    swp = sub.add_parser("sweep", help="parameter sweep with ratio aggregation")
    swp.add_argument("--param", required=True, choices=SWEEPABLE)
    swp.add_argument("--range", required=True, help="A:Z or A:Z:step, inclusive")
    swp.add_argument("--k", type=int, default=SweepConfig.k)
    swp.add_argument("--buffer", type=int, default=SweepConfig.B)
    swp.add_argument("--cores", type=int, default=SweepConfig.C)
    swp.add_argument("--policies", default=",".join(SweepConfig.policies), help="comma-separated ids")
    swp.add_argument("--slots", type=int, default=SweepConfig.slots)
    swp.add_argument("--runs", type=int, default=SweepConfig.runs)
    swp.add_argument("--seed", type=int, default=SweepConfig.master_seed)
    swp.add_argument("--out", required=True, help="output path prefix")
    swp.set_defaults(handler=_cmd_sweep)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument(
        "--suite",
        required=True,
        choices=("golden", "micro", "constructions"),
        help="golden includes the default-config sweep checks and takes a few minutes",
    )
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--count", type=int, default=200)
    ver.set_defaults(handler=_cmd_verify)

    bnd = sub.add_parser("bounds", help="evaluate a closed-form bound")
    bnd.add_argument("--id", required=True, help=f"one of {', '.join(BOUND_IDS)}")
    bnd.add_argument("--k", type=int, default=1)
    bnd.add_argument("--buffer", type=int, default=1)
    bnd.set_defaults(handler=_cmd_bounds)

    return parser


def _cmd_simulate(args) -> int:
    trace = read_trace(args.trace)
    result = run(
        trace,
        args.policy,
        args.buffer,
        args.cores,
        record_events=args.events,
    )
    print(
        f"policy={result.policy} B={args.buffer} C={args.cores} "
        f"final_slot={result.final_slot} transmitted={result.transmitted_count} "
        f"dropped={result.dropped_count} pushed_out={result.pushout_count} "
        f"admitted={result.admitted_count}"
    )
    if args.events:
        for ev in result.events:
            print(
                f"slot {ev.slot}: admitted={ev.admitted} dropped={ev.dropped_on_arrival} "
                f"pushed_out={ev.pushed_out} processed={ev.processed} transmitted={ev.transmitted}"
            )
    return 0


def _cmd_gen(args) -> int:
    if args.mmpp:
        if args.slots is None or args.k is None:
            raise ValueError("--mmpp needs --slots and --k")
        params = MmppParams(**{f.name: getattr(args, f.name) for f in fields(MmppParams)})
        trace = gen_mmpp(params, args.slots, args.seed)
    else:
        if args.buffer is None:
            raise ValueError("--construction needs --buffer")
        adv = gen_adversarial(
            args.construction,
            B=args.buffer,
            k=args.k,
            C=args.cores,
            periods=args.periods,
            level=args.level,
        )
        trace = adv.trace
    write_trace(trace, args.out)
    print(f"wrote {trace.packet_count} packets to {args.out}")
    return 0


def _parse_range(spec: str) -> tuple[int, ...]:
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"range must be A:Z or A:Z:step, got {spec!r}")
    lo, hi = int(parts[0]), int(parts[1])
    step = int(parts[2]) if len(parts) == 3 else 1
    if step < 1 or hi < lo:
        raise ValueError(f"bad range {spec!r}")
    return tuple(range(lo, hi + 1, step))


def _cmd_sweep(args) -> int:
    config = SweepConfig(
        param=args.param,
        values=_parse_range(args.range),
        k=args.k,
        B=args.buffer,
        C=args.cores,
        policies=tuple(p.strip() for p in args.policies.split(",") if p.strip()),
        slots=args.slots,
        runs=args.runs,
        master_seed=args.seed,
    )
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):
        raise ValueError(f"--out {args.out}: no such directory {out_dir}")
    table = sweep(config)
    csv_path = f"{args.out}results.csv"
    write_results_csv(table, csv_path)
    written = emit_plot_data(table, args.out)
    print(f"wrote {csv_path}")
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_verify(args) -> int:
    _check_int("--count", args.count)
    _check_int("--seed", args.seed, least=0)
    if args.suite == "golden":
        reports = golden_suite() + sweep_reproduction_reports(sweep(K_SWEEP), sweep(C_SWEEP))
    elif args.suite == "micro":
        reports = [verify_micro(count=args.count, seed=args.seed)]
    else:
        reports = constructions_suite()
    ok = True
    for rep in reports:
        print(rep.line())
        for detail in rep.details:
            print(f"    {detail}")
        ok = ok and rep.passed
    print(f"{sum(r.passed for r in reports)}/{len(reports)} checks passed")
    return 0 if ok else 1


def _cmd_bounds(args) -> int:
    print(f"{bound_value(args.id, k=args.k, B=args.buffer):g}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    # ValueError covers TraceError, UnknownPolicyError and ConstructionError
    except (OSError, ValueError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
