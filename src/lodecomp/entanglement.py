"""Global entanglement from the weights of the maximal branch decomposition.

The measure is the Shannon entropy of the maximal decomposition's branch
weights.  It vanishes exactly when the state has a single maximal branch,
reduces to the entropy of entanglement for two subsystems, and is
invariant under local unitaries and under pairwise unitaries that are
block-diagonal with respect to the branch subspace pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import maximal_decomposition
from .tensor import StateTensor, apply_matrix_at, apply_matrix_at_pair, _check_subsystem
from .tolerances import DEFAULT_TOLERANCES, Tolerances

UNITARITY_ATOL = 1e-10


def shannon_entropy(weights, base: float = 2.0) -> float:
    """Entropy of a probability vector, with 0 log 0 taken as 0.

    Weights a hair above 1 from roundoff would yield a tiny negative
    total; the result is clamped at zero so one branch means exactly 0.
    """
    total = 0.0
    for w in weights:
        w = float(w)
        if w < 0:
            raise ValueError(f"negative weight {w}")
        if w > 0:
            total -= w * math.log(w)
    return max(total / math.log(base), 0.0)


@dataclass(frozen=True)
class EntropyReport:
    """Branch weights and their entropy, plus degeneracy flags.

    ``degenerate_spectrum`` is set when some local spectrum needed the
    block-diagonalization path; ``non_unique`` only ever fires for two
    subsystems, where degenerate coefficients make the decomposition
    non-unique (the entropy is still well defined).
    """

    weights: tuple
    entropy_bits: float
    branch_count: int
    degenerate_spectrum: bool
    non_unique: bool

    @property
    def entropy_nats(self) -> float:
        return self.entropy_bits * math.log(2.0)


def entropy_report(result) -> EntropyReport:
    """Branch weights of a maximal decomposition result, and their entropy.

    The recovered weights sum to 1 only up to roundoff; the entropy is
    taken of the renormalized vector so that a single branch gives
    exactly 0 bits.
    """
    weights = tuple(float(w) for w in result.decomposition.weights)
    total = sum(weights)
    return EntropyReport(
        weights=weights,
        entropy_bits=shannon_entropy([w / total for w in weights]),
        branch_count=len(weights),
        degenerate_spectrum=bool(result.diagnostics.degenerate_subsystems),
        non_unique=result.diagnostics.non_unique,
    )


def e_lo(state: StateTensor, tol: Tolerances = DEFAULT_TOLERANCES, seed: int = 0) -> EntropyReport:
    """Shannon entropy (in bits) of the maximal decomposition's weights."""
    return entropy_report(maximal_decomposition(state, tol, seed))


def _check_unitary(mat: np.ndarray, size: int) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.shape != (size, size):
        raise ValueError(f"expected a {size}x{size} matrix, got {mat.shape}")
    deviation = float(np.max(np.abs(mat.conj().T @ mat - np.eye(size))))
    if deviation > UNITARITY_ATOL:
        raise ValueError(f"matrix is not unitary (deviation {deviation:.3e})")
    return mat


def apply_local_unitary(state: StateTensor, n: int, mat: np.ndarray) -> StateTensor:
    """Apply a unitary to one subsystem, leaving the others untouched."""
    n = _check_subsystem(state.dims, n)
    mat = _check_unitary(mat, state.dims[n])
    return StateTensor(state.dims, apply_matrix_at(state.amps, state.dims, n, mat))


def apply_pairwise_unitary(state: StateTensor, n: int, m: int, mat: np.ndarray) -> StateTensor:
    """Apply a unitary to the (n, m) subsystem pair.

    The matrix is indexed in the product basis |x_n, x_m> with the
    subsystem listed first varying slowest, regardless of whether n < m.
    """
    n = _check_subsystem(state.dims, n)
    m = _check_subsystem(state.dims, m)
    if n == m:
        raise ValueError("pairwise unitary needs two distinct subsystems")
    mat = _check_unitary(mat, state.dims[n] * state.dims[m])
    return StateTensor(state.dims, apply_matrix_at_pair(state.amps, state.dims, n, m, mat))


def level_mixing_unitary(d_n: int, d_m: int, a: int, b: int) -> np.ndarray:
    """Pairwise unitary sending |a,a> and |b,b> to their even/odd mixtures.

    Every other product basis state is fixed.  Acting on a diagonal state
    whose branch levels include a but not b, this entangles the pair inside
    one branch's subspaces without leaking into the others, so the branch
    weights are unchanged.
    """
    if not (0 <= a < min(d_n, d_m) and 0 <= b < min(d_n, d_m)):
        raise ValueError("levels must exist on both subsystems")
    if a == b:
        raise ValueError("levels must differ")
    mat = np.eye(d_n * d_m, dtype=np.complex128)
    e1 = a * d_m + a
    e2 = b * d_m + b
    h = 1.0 / math.sqrt(2.0)
    mat[e1, e1] = h
    mat[e1, e2] = h
    mat[e2, e1] = h
    mat[e2, e2] = -h
    return mat
