"""Global entanglement from the weights of the maximal branch decomposition.

The measure is the Shannon entropy of the maximal decomposition's branch
weights.  It vanishes exactly when the state has a single maximal branch,
reduces to the entropy of entanglement for two subsystems, and is
invariant under local unitaries and under pairwise unitaries that are
block-diagonal with respect to the branch subspace pairs.
"""

from __future__ import annotations

import math

import numpy as np

from .decomposition import maximal_decomposition
from .tensor import StateTensor, _check_subsystem, _index, apply_matrix_at
from .tolerances import DEFAULT_TOLERANCES, Tolerances

UNITARITY_ATOL = 1e-10


def weight_entropy(weights) -> float:
    """Shannon entropy in bits of branch weights renormalized to sum to 1,
    with 0 log 0 taken as 0.

    The weights sum to 1 only up to roundoff, and a sum a hair above 1
    would yield a tiny negative entropy, so the total in nats is clamped
    at zero: a single branch gives exactly 0 bits.  ValueError unless
    every weight is finite and nonnegative and their sum is above 0.
    """
    total = sum(weights)
    if not (all(math.isfinite(w) and w >= 0 for w in weights) and total > 0):
        raise ValueError("weights must be finite and nonnegative with a sum above 0")
    nats = 0.0
    for w in weights:
        w = float(w / total)
        if w > 0:
            nats -= w * math.log(w)
    return max(nats, 0.0) / math.log(2.0)


def e_lo(state: StateTensor, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Shannon entropy (in bits) of the maximal decomposition's weights."""
    return weight_entropy(maximal_decomposition(state, tol).decomposition.weights)


def _check_unitary(mat: np.ndarray, size: int) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.shape != (size, size):
        raise ValueError(f"expected a {size}x{size} matrix, got {mat.shape}")
    deviation = float(np.max(np.abs(mat.conj().T @ mat - np.eye(size))))
    if not deviation <= UNITARITY_ATOL:  # so NaN fails too
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
    # n and m to the front, flattened with n slowest: one product over the pair axis
    pair_first = np.moveaxis(state.as_array(), (n, m), (0, 1))
    out = (mat @ pair_first.reshape(len(mat), -1)).reshape(pair_first.shape)
    return StateTensor(state.dims, np.moveaxis(out, (0, 1), (n, m)).reshape(-1))


def level_mixing_unitary(d_n: int, d_m: int, a: int, b: int) -> np.ndarray:
    """Pairwise unitary sending |a,a> and |b,b> to their even/odd mixtures.

    Every other product basis state is fixed.  Acting on a diagonal state
    whose branch levels include a but not b, this entangles the pair inside
    one branch's subspaces without leaking into the others, so the branch
    weights are unchanged.
    """
    d_n, d_m = _index(d_n, "subsystem dimension"), _index(d_m, "subsystem dimension")
    a, b = _index(a, "level"), _index(b, "level")
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
