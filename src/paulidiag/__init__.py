"""Diagonalize Pauli-sum Hamiltonians with normalized Pauli-ansatz gradient flows.

The public surface re-exported here covers the whole pipeline: Pauli-string
algebra (`pauli`), Pauli-sum operators and support tables (`operators`), the
cost function and its exact gradient (`cost`), the two optimizers with their
trace records (`optimize`), model builders (`models`), and the dense
verification oracle (`verify`).
"""

from .cost import CostReport, KParams, eval_F, eval_grad
from .models import (
    RotationProduct,
    build_example_hams,
    build_hubbard,
    build_random_udu,
    build_xxz,
    conjugate_by_rotation,
    expand_rotation_product,
    warm_start_from_dense,
)
from .operators import (
    PauliSum,
    SupportSets,
    build_support_sets,
    load_hamiltonian,
    save_hamiltonian,
    sum_multiply,
)
from .optimize import (
    GD_DEFAULT_LR,
    RCD_DEFAULT_LR,
    LRSchedule,
    OptConfig,
    OptTrace,
    TraceRecord,
    estimate_alpha,
    rolling_median,
    run_gd,
    run_rcd,
)
from .pauli import PauliParseError, PauliString, commutes, multiply, parse, unpack_keys
from .verify import (
    DENSE_MAX_QUBITS,
    DenseLimitError,
    DiagReport,
    LieClosure,
    diag_report,
    generating_set_check,
    kparams_to_dense,
    lie_closure_dim,
    pauli_decompose,
    projector_distances,
    to_dense,
)

__all__ = [
    "CostReport",
    "DENSE_MAX_QUBITS",
    "DenseLimitError",
    "DiagReport",
    "GD_DEFAULT_LR",
    "KParams",
    "LRSchedule",
    "LieClosure",
    "OptConfig",
    "OptTrace",
    "PauliParseError",
    "PauliString",
    "PauliSum",
    "RCD_DEFAULT_LR",
    "RotationProduct",
    "SupportSets",
    "TraceRecord",
    "build_example_hams",
    "build_hubbard",
    "build_random_udu",
    "build_support_sets",
    "build_xxz",
    "commutes",
    "conjugate_by_rotation",
    "diag_report",
    "estimate_alpha",
    "eval_F",
    "eval_grad",
    "expand_rotation_product",
    "generating_set_check",
    "kparams_to_dense",
    "lie_closure_dim",
    "load_hamiltonian",
    "multiply",
    "parse",
    "pauli_decompose",
    "projector_distances",
    "rolling_median",
    "run_gd",
    "run_rcd",
    "save_hamiltonian",
    "sum_multiply",
    "to_dense",
    "unpack_keys",
    "warm_start_from_dense",
]
