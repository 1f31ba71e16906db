"""losskit: simulation of loss-tolerant quantum codes and one-way computation.

The package covers four protocol layers on top of a dense little simulator:
parity/redundancy erasure codes, detected-loss recovery with feedforward,
cluster-state one-way computation under photon loss, and measurement-setting
fidelity estimation with shot noise.
"""

from .qsim import (
    DensityMatrix,
    NoiseSpec,
    PauliString,
    Seed,
    StateVector,
    ZeroProbabilityBranch,
    apply_channel,
    apply_gate,
    expectation,
    fidelity_pure,
    measure,
    partial_trace,
    post_loss_state,
)
from .codes import CodeParams, LogicalInput, PRESETS, encode, encode_circuit_22, logical_basis, stabilizers
from .recovery import (
    LossPattern,
    best_effort_plan,
    erase,
    execute_recovery,
    plan_recovery,
    recoverable,
    recovery_sweep,
)
from .cluster import (
    MeasurementPattern,
    OneWayResult,
    PatternStep,
    loss_tolerant_rotation,
    pattern_branches,
    phi5,
    rotation_sweep,
    rotation_target,
    run_pattern,
)
from .tomography import (
    CountsTable,
    PauliDecomposition,
    Setting,
    decompose_projector,
    estimate_fidelity,
    group_settings,
    simulate_counts,
)

__version__ = "0.1.0"

__all__ = [
    "CodeParams",
    "CountsTable",
    "DensityMatrix",
    "LogicalInput",
    "LossPattern",
    "MeasurementPattern",
    "NoiseSpec",
    "OneWayResult",
    "PRESETS",
    "PatternStep",
    "PauliDecomposition",
    "PauliString",
    "Seed",
    "Setting",
    "StateVector",
    "ZeroProbabilityBranch",
    "apply_channel",
    "apply_gate",
    "best_effort_plan",
    "decompose_projector",
    "encode",
    "encode_circuit_22",
    "erase",
    "estimate_fidelity",
    "execute_recovery",
    "expectation",
    "fidelity_pure",
    "group_settings",
    "logical_basis",
    "loss_tolerant_rotation",
    "measure",
    "partial_trace",
    "pattern_branches",
    "phi5",
    "plan_recovery",
    "post_loss_state",
    "recoverable",
    "recovery_sweep",
    "rotation_sweep",
    "rotation_target",
    "run_pattern",
    "simulate_counts",
    "stabilizers",
]
