"""Dense multipartite pure states and the primitive linear algebra on them.

A state over subsystems with dimensions ``dims = (d_0, ..., d_{N-1})`` is
stored as a flat complex vector of length ``prod(dims)`` in row-major
layout: subsystem 0 is the slowest-varying index, so
``amps.reshape(dims)`` recovers the natural multi-index array.  Subsystems
are addressed by 0-based index everywhere in this package.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to share between concurrent tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NORM_ATOL = 1e-12
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-10
ORTHONORMALITY_ATOL = 1e-10


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
        dims = tuple(int(d) for d in dims)
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


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Reduced density operator on an ordered subset of subsystems.

    Hermiticity and (for reduced states of a normalized pure state) unit
    trace are validated at construction.
    """

    subsystems: tuple
    matrix: np.ndarray = field(repr=False)

    def __init__(self, subsystems, matrix):
        subsystems = tuple(int(n) for n in subsystems)
        mat = np.asarray(matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        herm = float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0
        if herm > HERMITICITY_ATOL:
            raise ValueError(f"matrix is not Hermitian (max deviation {herm:.3e})")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"matrix trace {tr} deviates from 1 beyond {TRACE_ATOL:.0e}")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "subsystems", subsystems)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class LocalProjector:
    """Projector onto a subspace of one subsystem, identity elsewhere.

    ``basis`` holds orthonormal columns spanning the subspace of that
    subsystem's local space.
    """

    subsystem: int
    basis: np.ndarray = field(repr=False)

    def __init__(self, subsystem, basis):
        subsystem = int(subsystem)
        b = np.asarray(basis, dtype=np.complex128)
        if b.ndim == 1:
            b = b[:, None]
        if b.ndim != 2 or b.shape[1] < 1 or b.shape[1] > b.shape[0]:
            raise ValueError(f"basis must be a (d, k) column set with 1 <= k <= d, got {b.shape}")
        gram = b.conj().T @ b
        dev = float(np.max(np.abs(gram - np.eye(b.shape[1]))))
        if dev > ORTHONORMALITY_ATOL:
            raise ValueError(f"basis columns are not orthonormal (max deviation {dev:.3e})")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "subsystem", int(subsystem))
        object.__setattr__(self, "basis", b)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def matrix(self) -> np.ndarray:
        """Dense projector matrix on the local space."""
        return self.basis @ self.basis.conj().T


# ---------------------------------------------------------------------------
# layout helpers


def flat_index(dims, multi) -> int:
    """Flat index of a multi-index under the row-major layout."""
    dims = tuple(dims)
    multi = tuple(multi)
    if len(multi) != len(dims):
        raise ValueError("multi-index length must match dims")
    idx = 0
    for d, i in zip(dims, multi):
        if not 0 <= i < d:
            raise ValueError(f"index {i} out of range for dimension {d}")
        idx = idx * d + i
    return idx


def multi_index(dims, flat) -> tuple:
    """Multi-index of a flat index under the row-major layout."""
    dims = tuple(dims)
    total = math.prod(dims)
    if not 0 <= flat < total:
        raise ValueError(f"flat index {flat} out of range for dims {dims}")
    out = []
    for d in reversed(dims):
        out.append(flat % d)
        flat //= d
    return tuple(reversed(out))


def _check_subsystem(dims, n: int) -> int:
    if not 0 <= n < len(dims):
        raise ValueError(f"subsystem index {n} out of range for {len(dims)} subsystems")
    return int(n)


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


def apply_matrix_at_pair(amps: np.ndarray, dims, n: int, m: int, mat: np.ndarray) -> np.ndarray:
    """Apply a matrix on the (n, m) subsystem pair of a flat vector.

    ``mat`` is indexed with subsystem ``n`` slowest: row/column index
    ``i_n * dims[m] + i_m``.
    """
    n = _check_subsystem(dims, n)
    m = _check_subsystem(dims, m)
    if n == m:
        raise ValueError("pair operation needs two distinct subsystems")
    dn, dm = dims[n], dims[m]
    if mat.shape != (dn * dm, dn * dm):
        raise ValueError(f"matrix shape {mat.shape} does not match pair dimension {dn * dm}")
    mat4 = mat.reshape(dn, dm, dn, dm)
    a, b = (n, m) if n < m else (m, n)
    if n > m:
        mat4 = mat4.transpose(1, 0, 3, 2)  # reorder to act as (subsystem a, subsystem b)
    da, db = dims[a], dims[b]
    pre = math.prod(dims[:a]) if a else 1
    mid = math.prod(dims[a + 1:b])
    post = math.prod(dims[b + 1:]) if b + 1 < len(dims) else 1
    arr = amps.reshape(pre, da, mid, db, post)
    out = np.einsum("cdab,pamby->pcmdy", mat4, arr)
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# operations


def partial_trace(state: StateTensor, keep) -> DensityOperator:
    """Reduced density operator on the ``keep`` subsystems.

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
    arr = state.as_array()
    rho = np.tensordot(arr, arr.conj(), axes=(traced, traced))
    dim = math.prod(state.dims[n] for n in keep)
    return DensityOperator(keep, rho.reshape(dim, dim))


def apply_local_projector(state: StateTensor, proj: LocalProjector):
    """Project the state onto a local subspace without renormalizing.

    Returns
    -------
    (numpy.ndarray, float)
        The projected flat vector and its squared norm.
    """
    n = _check_subsystem(state.dims, proj.subsystem)
    if proj.basis.shape[0] != state.dims[n]:
        raise ValueError(
            f"projector acts on dimension {proj.basis.shape[0]}, "
            f"subsystem {n} has dimension {state.dims[n]}"
        )
    vec = apply_matrix_at(state.amps, state.dims, n, proj.matrix())
    weight = float(np.vdot(vec, vec).real)
    return vec, weight


def joint_projection_norm(state: StateTensor, p: LocalProjector, q: LocalProjector) -> float:
    """Squared norm of the state after projecting two distinct subsystems.

    Symmetric in its projector arguments because projectors on different
    subsystems commute.
    """
    if p.subsystem == q.subsystem:
        raise ValueError("joint projection requires projectors on distinct subsystems")
    vec, _ = apply_local_projector(state, p)
    vec = apply_matrix_at(vec, state.dims, q.subsystem, q.matrix())
    return float(np.vdot(vec, vec).real)


def inner_product(a, b) -> complex:
    """Hermitian inner product <a|b> of two equally shaped amplitude vectors."""
    av = a.amps if isinstance(a, StateTensor) else np.asarray(a, dtype=np.complex128)
    bv = b.amps if isinstance(b, StateTensor) else np.asarray(b, dtype=np.complex128)
    if av.shape != bv.shape:
        raise ValueError(f"shape mismatch: {av.shape} vs {bv.shape}")
    if isinstance(a, StateTensor) and isinstance(b, StateTensor) and a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    return complex(np.vdot(av, bv))


def tensor_compose(a: StateTensor, b: StateTensor) -> StateTensor:
    """Tensor product state on the concatenated subsystem list."""
    return StateTensor(a.dims + b.dims, np.kron(a.amps, b.amps))


def permute_subsystems(state: StateTensor, perm) -> StateTensor:
    """Reorder subsystems: new position ``k`` holds old subsystem ``perm[k]``."""
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(state.n_subsystems)):
        raise ValueError(f"{perm} is not a permutation of 0..{state.n_subsystems - 1}")
    arr = state.as_array().transpose(perm)
    return StateTensor(tuple(state.dims[p] for p in perm), arr.reshape(-1))
