"""bellkit: a two-qubit state simulator built around the Bell basis.

Layers: `core` (states, operators, lifts), `bell` (Bell family,
separability, classification), `engine` (measurements and seeded shot
runs), `circuit` (the .bk program language), `cli` (command line), and
`checks` (runtime self-tests).
"""

from .bell import (
    EPS_CLASS,
    EPS_SEP,
    BellDescriptor,
    StateClassification,
    bell_state,
    classify,
    factorize,
    separability_defect,
)
from .circuit import (
    CircuitProgram,
    Diagnostic,
    format_program,
    parse,
    validate,
)
from .core import (
    EPS_NORM,
    EPS_OP,
    EPS_ZERO,
    INV_SQRT2,
    SingleQubitOperator,
    SingleQubitState,
    TwoQubitOperator,
    TwoQubitState,
    apply1,
    apply2,
    basis_state,
    bell_operator,
    compose,
    inner,
    lift_a,
    lift_b,
    named_operator,
    norm,
    normalize,
    projector,
    state_text,
    states_close,
    states_equal_up_to_phase,
    tensor,
)
from .engine import (
    EPS_DET,
    CompiledProgram,
    InvalidProgram,
    MeasurementRecord,
    RelativeBit,
    RelativeBitResult,
    ShotResult,
    ShotStatistics,
    derive_rng,
    measure_relative,
    measure_value,
    relative_bit,
    run,
    run_shot,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
