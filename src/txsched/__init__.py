"""Energy-minimal transmission scheduling for deadline-constrained
packets on a point-to-point link with a convex power-rate law."""

from . import _heap
from .model import (
    EmptyInstance,
    EpochDecomposition,
    Instance,
    InstanceFormatError,
    MalformedPacket,
    Packet,
    PairTable,
    decompose,
    instance_from_json,
    instance_to_json,
    is_non_fifo,
    check_packets,
    normalize_columns,
    normalize_instance,
)
from .power import (
    BracketOverflow,
    Monomial,
    NegativeInput,
    NegativeRate,
    NonFiniteEnergy,
    PowerModel,
    Shannon,
    ZeroRate,
    schedule_energy,
)
from .scheduler import (
    InternalDeadlineMiss,
    InternalIdle,
    InternalInvariantViolation,
    IterationStep,
    IterationTrace,
    NoCandidates,
    Schedule,
    ScheduleFormatError,
    SegmentTable,
    edf_fill,
    schedule_from_allocation,
    schedule_from_json,
    schedule_to_json,
    solve,
)
from .verifier import (
    DimensionMismatch,
    EpochConditions,
    FeasibilityReport,
    Gamma,
    InfeasibleInput,
    KKTCertificate,
    NotOptimal,
    VerificationReport,
    check_feasible,
    check_optimality,
    epoch_times,
    extract_certificate,
)
from .oracle import (
    OracleSolution,
    TooLarge,
    solve_grid,
    solve_projected_gradient,
)
from .harness import (
    BenchRow,
    ConfigInvalid,
    GeneratorConfig,
    baseline_constant_edf,
    bench_complexity,
    generate,
)

__version__ = "0.1.0"

_heap.fix_thresholds()
