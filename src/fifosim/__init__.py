"""Simulator and verification suite for bounded FIFO buffers whose packets
need multiple processing cycles: online admission/scheduling policies, worst
case and stochastic traffic, a brute-force offline optimum for micro
instances, and the claimed-ratio checks tying them together."""

from .adversarial import ConstructionError, gen_adversarial
from .bounds import BOUND_IDS, bound_value
from .core import (
    BufferState,
    Packet,
    SimulationError,
)
from .engine import run
from .oracle import (
    OracleLimitError,
    offline_opt_bruteforce,
    replay_accept_mask,
)
from .policies import (
    ACCEPT,
    DROP,
    Policy,
    UnknownPolicyError,
    make_policy,
    push_out,
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
