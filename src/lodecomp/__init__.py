"""Locally orthogonal branch decompositions of multipartite pure states.

A state is split into weighted branches whose per-subsystem supports are
mutually orthogonal, so any single subsystem can reveal the branch by a
local measurement.  The package computes the finest such decomposition
(unique for three or more subsystems, the Schmidt decomposition for two),
the Shannon entropy of its weights as a global entanglement measure, and
ships generators, brute-force cross-checks, and a CLI.
"""

from .catalog import (
    StateSpec,
    dress_state,
    generate,
    ghz_state,
    haar_unitary,
    product_state,
    random_state,
    u_state,
    v_state,
    w_state,
    x_state,
    z_state,
)
from .decomposition import (
    Branch,
    BranchDecomposition,
    CorrelationGraph,
    DecompositionResult,
    Diagnostics,
    VerificationReport,
    assemble_branches,
    build_correlation_graph,
    coarse_grain,
    common_fine_graining,
    maximal_decomposition,
    sbd_refine,
    trivial_decomposition,
    verify_lo,
)
from .entanglement import (
    EntropyReport,
    apply_local_unitary,
    apply_pairwise_unitary,
    e_lo,
    entropy_report,
    level_mixing_unitary,
    shannon_entropy,
)
from .errors import (
    DegenerateSpectrumError,
    InternalConsistencyError,
    UnsupportedOperationError,
)
from .fileio import StateFile, report_document, report_to_json
from .oracle import (
    OracleVerdict,
    oracle_maximal_nondegenerate,
    oracle_verify_maximality_small,
)
from .spectral import (
    SchmidtDecomposition,
    SpectralData,
    cluster_eigenvalues,
    local_spectrum,
    schmidt_decompose,
)
from .tensor import (
    DensityOperator,
    LocalProjector,
    StateTensor,
    apply_local_projector,
    inner_product,
    joint_projection_norm,
    partial_trace,
    permute_subsystems,
    tensor_compose,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__version__ = "1.0.0"

__all__ = [
    "Branch",
    "BranchDecomposition",
    "CorrelationGraph",
    "DecompositionResult",
    "DegenerateSpectrumError",
    "DensityOperator",
    "Diagnostics",
    "DEFAULT_TOLERANCES",
    "EntropyReport",
    "InternalConsistencyError",
    "LocalProjector",
    "OracleVerdict",
    "SchmidtDecomposition",
    "SpectralData",
    "StateFile",
    "StateSpec",
    "StateTensor",
    "Tolerances",
    "UnsupportedOperationError",
    "VerificationReport",
    "apply_local_projector",
    "apply_local_unitary",
    "apply_pairwise_unitary",
    "assemble_branches",
    "build_correlation_graph",
    "cluster_eigenvalues",
    "coarse_grain",
    "common_fine_graining",
    "dress_state",
    "e_lo",
    "entropy_report",
    "generate",
    "ghz_state",
    "haar_unitary",
    "inner_product",
    "joint_projection_norm",
    "level_mixing_unitary",
    "local_spectrum",
    "maximal_decomposition",
    "oracle_maximal_nondegenerate",
    "oracle_verify_maximality_small",
    "partial_trace",
    "permute_subsystems",
    "product_state",
    "random_state",
    "report_document",
    "report_to_json",
    "sbd_refine",
    "schmidt_decompose",
    "shannon_entropy",
    "tensor_compose",
    "trivial_decomposition",
    "u_state",
    "v_state",
    "verify_lo",
    "w_state",
    "x_state",
    "z_state",
]
