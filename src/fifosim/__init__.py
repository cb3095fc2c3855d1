"""Simulator and verification suite for bounded FIFO buffers whose packets
need multiple processing cycles: online admission/scheduling policies, worst
case and stochastic traffic, a brute-force offline optimum for micro
instances, and the claimed-ratio checks tying them together."""

from .adversarial import (
    ConstructionError,
    gen_adversarial,
    reference_accept_mask,
)
from .bounds import BOUND_IDS, bound_value
from .core import (
    BufferState,
    Packet,
    SimulationError,
    SimulationResult,
    SlotEvents,
)
from .engine import run
from .oracle import (
    OracleLimitError,
    OracleResult,
    offline_opt_bruteforce,
    replay_accept_mask,
)
from .policies import (
    ACCEPT,
    DROP,
    LpoMode,
    Policy,
    UnknownPolicyError,
    lpo_p_on_arrival,
    lpo_select_processing,
    make_policy,
    npo_on_arrival,
    po_on_arrival,
    po_select_processing,
    push_out,
    srpt_select_processing,
)
from .sweep import (
    ResultTable,
    SweepConfig,
    SweepRow,
    derive_run_seed,
    emit_plot_data,
    sweep,
    write_results_csv,
)
from .trace import Trace, TraceError, read_trace, validate_trace, write_trace
from .traffic import MmppParams, gen_mmpp
from .verify import (
    VerificationReport,
    constructions_suite,
    golden_suite,
    verify_construction,
    verify_micro,
)

__version__ = "0.1.0"

__all__ = [
    "ConstructionError",
    "gen_adversarial",
    "BOUND_IDS",
    "bound_value",
    "BufferState",
    "Packet",
    "SimulationError",
    "SimulationResult",
    "SlotEvents",
    "run",
    "OracleLimitError",
    "OracleResult",
    "offline_opt_bruteforce",
    "replay_accept_mask",
    "ACCEPT",
    "DROP",
    "LpoMode",
    "Policy",
    "UnknownPolicyError",
    "lpo_p_on_arrival",
    "lpo_select_processing",
    "make_policy",
    "npo_on_arrival",
    "po_on_arrival",
    "po_select_processing",
    "push_out",
    "srpt_select_processing",
    "reference_accept_mask",
    "ResultTable",
    "SweepConfig",
    "SweepRow",
    "derive_run_seed",
    "emit_plot_data",
    "sweep",
    "write_results_csv",
    "Trace",
    "TraceError",
    "read_trace",
    "validate_trace",
    "write_trace",
    "MmppParams",
    "gen_mmpp",
    "VerificationReport",
    "constructions_suite",
    "golden_suite",
    "verify_construction",
    "verify_micro",
]
