"""Dense multipartite pure states and the primitive linear algebra on them.

A state over subsystems with dimensions ``dims = (d_0, ..., d_{N-1})`` is
stored as a flat complex vector of length ``prod(dims)`` in row-major
layout: subsystem 0 is the slowest-varying index, so
``amps.reshape(dims)`` recovers the natural multi-index array.  Subsystems
are addressed by 0-based index everywhere in this package.

A ``StateTensor`` is immutable after construction and all operations are
pure functions, so everything here is safe to share between concurrent
tasks.  A partial trace or a projection is a fresh plain ``ndarray`` that
the caller owns.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

NORM_ATOL = 1e-12


def _index(value, what: str) -> int:
    """``value`` as a plain int, else ValueError naming ``what``: numpy
    integers pass, while bools, floats and strings are never truncated."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


def _dims(dims) -> tuple:
    """Subsystem dimensions as a tuple of plain ints, by :func:`_index`."""
    return tuple(_index(d, "subsystem dimension") for d in dims)


def _as_complex_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"amplitude data must be one-dimensional, got shape {arr.shape}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ValueError("amplitude data contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class StateTensor:
    """Normalized pure state over an explicit tensor factorization.

    Parameters
    ----------
    dims : tuple of int
        Subsystem dimensions, at least two subsystems, every dimension >= 1.
    amps : numpy.ndarray
        Complex amplitudes of length ``prod(dims)``.  Normalized at
        construction; a (numerically) zero vector is rejected rather than
        silently normalized.
    """

    dims: tuple
    amps: np.ndarray = field(repr=False)

    def __init__(self, dims, amps):
        dims = _dims(dims)
        if len(dims) < 2:
            raise ValueError("a state needs at least two subsystems")
        if any(d < 1 for d in dims):
            raise ValueError(f"subsystem dimensions must be >= 1, got {dims}")
        arr = _as_complex_vector(amps)
        expected = math.prod(dims)
        if arr.size != expected:
            raise ValueError(
                f"amplitude vector has length {arr.size}, expected prod(dims) = {expected}"
            )
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(arr))
        if not math.isfinite(norm):
            # the squared norm overflows: divide by the largest real or
            # imaginary part first (the largest modulus can overflow too)
            arr = arr / np.abs(arr.view(np.float64)).max()
            norm = float(np.linalg.norm(arr))
        if norm <= NORM_ATOL:
            raise ValueError("cannot normalize a zero amplitude vector")
        arr = arr / norm
        arr.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", arr)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return self.amps.size

    def as_array(self) -> np.ndarray:
        """Amplitudes reshaped to the multi-index array of shape ``dims``."""
        return self.amps.reshape(self.dims)


# ---------------------------------------------------------------------------
# kernels


def _check_subsystem(dims, n: int) -> int:
    n = _index(n, "subsystem index")
    if not 0 <= n < len(dims):
        raise ValueError(f"subsystem index {n} out of range for {len(dims)} subsystems")
    return n


def apply_matrix_at(amps: np.ndarray, dims, n: int, mat: np.ndarray) -> np.ndarray:
    """Apply a (d'_n, d_n) matrix to subsystem ``n`` of a flat vector.

    The kernel is picked by the vector's shape around ``n``, as measured
    with one BLAS thread: a matmul batched over the leading subsystems
    while the trailing ones are at least a quarter as large, else a single
    matmul over the vector with subsystem ``n`` moved last (a batched
    matmul over many short trailing axes is several times slower).
    """
    n = _check_subsystem(dims, n)
    d = dims[n]
    if mat.shape[1] != d:
        raise ValueError(f"matrix acts on dimension {mat.shape[1]}, subsystem {n} has {d}")
    pre = math.prod(dims[:n])
    post = math.prod(dims[n + 1:])
    arr = amps.reshape(pre, d, post)
    if pre <= 4 * post:
        return np.matmul(mat, arr).reshape(-1)
    out = arr.transpose(0, 2, 1).reshape(pre * post, d) @ mat.T
    return out.reshape(pre, post, -1).transpose(0, 2, 1).reshape(-1)


def basis_stack(bases) -> np.ndarray:
    """Bases of one subsystem as a (k, d, r) stack, each zero-padded to the
    largest rank r; the padding leaves every projector q q^H unchanged."""
    stack = np.zeros((len(bases), bases[0].shape[0], max(b.shape[1] for b in bases)), np.complex128)
    for q, b in zip(stack, bases):
        q[:, : b.shape[1]] = b
    return stack


def project_supports(amps: np.ndarray, dims, n: int, stack: np.ndarray) -> np.ndarray:
    """Every P_i psi, P_i = q_i q_i^H for the bases q_i of a (k, d_n, r)
    :func:`basis_stack`, from one product with the stacked (k d_n, d_n)
    projectors.  Returned as (prod(dims[:n]), k, rest), the product's own
    layout: P_i psi is ``out[:, i].reshape(-1)``, and for n = 0 the rows of
    ``out.reshape(k, -1)``."""
    projectors = stack @ stack.conj().swapaxes(1, 2)
    out = apply_matrix_at(amps, dims, n, projectors.reshape(-1, dims[n]))
    return out.reshape(math.prod(dims[:n]), len(stack), -1)


# ---------------------------------------------------------------------------
# operations


def partial_trace(state: StateTensor, keep) -> np.ndarray:
    """Reduced density matrix on the ``keep`` subsystems, a fresh array.

    Parameters
    ----------
    keep : iterable of int
        Nonempty strict subset of subsystem indices.  The retained
        subsystems appear in ascending index order in the output.
    """
    keep = sorted({_check_subsystem(state.dims, n) for n in keep})
    if not keep:
        raise ValueError("keep-set must be nonempty")
    if len(keep) == state.n_subsystems:
        raise ValueError("keep-set must be a strict subset of the subsystems")
    traced = [n for n in range(state.n_subsystems) if n not in keep]
    dim = math.prod(state.dims[n] for n in keep)
    # one transpose, one product: np.dot keeps tensordot's bits (matmul not always)
    kept = state.as_array().transpose(keep + traced).reshape(dim, -1)
    return np.dot(kept, kept.conj().T)
