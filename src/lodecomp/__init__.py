"""Locally orthogonal branch decompositions of multipartite pure states.

A state is split into weighted branches whose per-subsystem supports are
mutually orthogonal, so any single subsystem can reveal the branch by a
local measurement.  The package computes the finest such decomposition
(unique for three or more subsystems, the Schmidt decomposition for two),
the Shannon entropy of its weights as a global entanglement measure, and
ships generators, brute-force cross-checks, and a CLI.
"""

import types as _types

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
    DecompositionResult,
    Diagnostics,
    VerificationReport,
    assemble_branches,
    maximal_decomposition,
    sbd_refine,
    verify_lo,
)
from .entanglement import e_lo, weight_entropy
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
    SpectralData,
    cluster_eigenvalues,
    local_spectrum,
)
from .tensor import StateTensor, partial_trace
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__version__ = "1.0.0"

# every public name imported above; the submodules are reached as attributes
__all__ = sorted(
    name
    for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _types.ModuleType))
)
