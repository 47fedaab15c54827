"""Exact reasoning and fair-coin sampling for probabilistic
guarded-command programs over finite state spaces."""

from .bits import RandomBitSource, ScriptedBitSource
from .checks import (
    Counterexample,
    ProbeFamily,
    Verdict,
    check_equal,
    check_refines,
    check_variant,
    dyadic_grid,
)
from .errors import (
    BitsExhaustedError,
    DistError,
    EvalError,
    MachineAnalysisError,
    MachineFormatError,
    PgclError,
    PgclSyntaxError,
    SpaceError,
    UndefinedStateError,
    UsageError,
    VariantError,
    WindowInvariantError,
    WpError,
)
from .expectations import Expectation, constant, from_expr, indicator
from .exprs import Expr, free_vars, pretty_expr
from .machine import (
    Machine,
    MachineAnalysis,
    MachineNode,
    analyze,
    load_machine,
    machine_to_text,
    to_dot,
)
from .parser import parse_expression, parse_program, parse_rational, parse_source
from .programs import Program, VariantSpec, pretty_print
from .sampler import (
    CumulativeDist,
    SampleTrace,
    TrialsResult,
    WeightedDist,
    build_machine,
    read_trials_file,
    run_trials,
    sample_binary,
    sample_discrete,
)
from .states import State, StateSpace, VarDomain, space_of
from .wp import WpConfig, WpResult, compile_program, wp

__version__ = "0.1.0"

__all__ = [
    "BitsExhaustedError", "Counterexample", "CumulativeDist", "DistError",
    "EvalError", "Expectation", "Expr", "Machine", "MachineAnalysis",
    "MachineAnalysisError", "MachineFormatError", "MachineNode",
    "PgclError", "PgclSyntaxError", "ProbeFamily", "Program",
    "RandomBitSource", "SampleTrace",
    "ScriptedBitSource", "SpaceError", "State", "StateSpace",
    "TrialsResult", "UndefinedStateError", "UsageError", "VarDomain", "VariantError",
    "VariantSpec", "Verdict", "WeightedDist", "WindowInvariantError",
    "WpConfig", "WpError", "WpResult", "analyze", "build_machine",
    "check_equal", "check_refines", "check_variant", "compile_program",
    "constant", "dyadic_grid", "free_vars", "from_expr",
    "indicator", "load_machine", "machine_to_text", "parse_expression",
    "parse_program", "parse_rational", "parse_source", "pretty_expr",
    "pretty_print", "read_trials_file", "run_trials", "sample_binary",
    "sample_discrete", "space_of", "to_dot", "wp",
]
