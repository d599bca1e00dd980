"""Local eigensystems, Schmidt decompositions, and degeneracy detection.

Degeneracy is reported here, never silently resolved; structural handling
of degenerate spectra is the decomposition layer's job.  Eigenvector and
Schmidt-vector phases are fixed by making the largest-magnitude component
real positive so repeated runs produce identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import StateTensor, _index, partial_trace, permute_subsystems
from .tolerances import DEFAULT_TOLERANCES


def fix_phases(columns: np.ndarray) -> np.ndarray:
    """Rescale each column so its largest-magnitude entry is real positive."""
    out = columns.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if abs(pivot) > 0:
            out[:, k] = col * (abs(pivot) / pivot)
    return out


def cluster_eigenvalues(values, t_deg: float = DEFAULT_TOLERANCES.t_deg):
    """Partition a descending-sorted value list into degeneracy clusters.

    Greedy gap clustering: a new cluster starts whenever the gap to the
    previous value exceeds ``t_deg``.

    Returns
    -------
    list of list of int
        Index groups, in order.
    """
    values = np.asarray(values, dtype=np.float64)
    steps = np.diff(values)
    if (steps > 1e-15).any():
        raise ValueError("values must be sorted in descending order")
    cuts = [0, *(np.flatnonzero(~(-steps <= t_deg)) + 1).tolist(), values.size]
    return [list(range(a, b)) for a, b in zip(cuts, cuts[1:]) if a < b]


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Eigensystem of a single subsystem's reduced density operator.

    Eigenvalues are sorted descending; ``clusters`` groups indices whose
    eigenvalues are indistinguishable within the clustering tolerance, and
    ``support_rank`` counts eigenvalues above the support cutoff.
    """

    subsystem: int
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    clusters: tuple
    support_rank: int

    @property
    def support_basis(self) -> np.ndarray:
        """Orthonormal columns spanning the local support."""
        return self.eigenvectors[:, : self.support_rank]

    @property
    def is_support_degenerate(self) -> bool:
        """True when any two in-support eigenvalues share a cluster."""
        return any(
            sum(1 for i in cluster if i < self.support_rank) > 1 for cluster in self.clusters
        )


def local_spectrum(
    state: StateTensor,
    n: int,
    t_deg: float = DEFAULT_TOLERANCES.t_deg,
    t_supp: float = DEFAULT_TOLERANCES.t_supp,
) -> SpectralData:
    """Diagonalize the reduced density operator of subsystem ``n``.

    Parameters
    ----------
    state : StateTensor
    n : int
        Subsystem index.
    t_deg : float
        Degeneracy clustering tolerance.
    t_supp : float
        Eigenvalues at or below this cutoff are flagged outside the support.
    """
    vals, vecs = np.linalg.eigh(partial_trace(state, [n]))
    vals, vecs = vals[::-1].copy(), fix_phases(vecs[:, ::-1])  # no sort: ties keep eigh's order
    clusters = tuple(tuple(c) for c in cluster_eigenvalues(vals, t_deg))
    support_rank = int(np.sum(vals > t_supp))
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return SpectralData(int(n), vals, vecs, clusters, support_rank)


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Singular value decomposition of a state across a bipartition.

    ``coefficients`` are the nonzero singular values sorted descending;
    ``left_vectors`` / ``right_vectors`` hold matching orthonormal columns
    for the cut side and its complement.  ``degenerate`` is set when any
    two retained coefficients coincide within the clustering tolerance.
    """

    cut: tuple
    complement: tuple
    coefficients: np.ndarray = field(repr=False)
    left_vectors: np.ndarray = field(repr=False)
    right_vectors: np.ndarray = field(repr=False)
    degenerate: bool
    dims: tuple

    @property
    def rank(self) -> int:
        return self.coefficients.size

    def reconstruct(self) -> StateTensor:
        """Rebuild the state (in the original subsystem order) from the terms."""
        mat = (self.left_vectors * self.coefficients) @ self.right_vectors.T
        perm = self.cut + self.complement
        in_cut_order = StateTensor(tuple(self.dims[p] for p in perm), mat.reshape(-1))
        return permute_subsystems(in_cut_order, np.argsort(perm))


def schmidt_decompose(
    state: StateTensor,
    cut,
    t_deg: float = DEFAULT_TOLERANCES.t_deg,
    t_supp: float = DEFAULT_TOLERANCES.t_supp,
) -> SchmidtDecomposition:
    """Schmidt decomposition of a state across the given subsystem cut.

    Parameters
    ----------
    cut : iterable of int
        Nonempty strict subset of subsystem indices forming one side of the
        bipartition.

    Notes
    -----
    Coefficients with squared value at or below ``t_supp`` are dropped;
    ValueError if none is left.
    The right vectors carry any phase freedom; left-vector phases are fixed
    for reproducibility.
    """
    cut = sorted({_index(n, "cut index") for n in cut})
    if not cut or len(cut) == state.n_subsystems:
        raise ValueError("cut must be a nonempty strict subset of the subsystems")
    if any(not 0 <= n < state.n_subsystems for n in cut):
        raise ValueError(f"cut {cut} out of range for {state.n_subsystems} subsystems")
    complement = [n for n in range(state.n_subsystems) if n not in cut]
    perm = tuple(cut) + tuple(complement)
    arr = state.as_array().transpose(perm)
    d_left = math.prod(state.dims[n] for n in cut)
    d_right = math.prod(state.dims[n] for n in complement)
    u, s, vh = np.linalg.svd(arr.reshape(d_left, d_right), full_matrices=False)
    keep = s**2 > t_supp
    if not keep.any():  # s[0] exists: every dimension is at least 1
        raise ValueError(
            f"t_supp {t_supp:g} leaves subsystems {cut} and {complement} no support: "
            f"the largest squared Schmidt coefficient is {s[0] ** 2:.6g}"
        )
    s = s[keep]
    left = u[:, keep]
    right = vh[keep, :].T

    # absorb the left phase convention into the right vectors
    fixed = fix_phases(left)
    phase = np.einsum("ik,ik->k", fixed.conj(), left)
    right = right * phase
    left = fixed

    degenerate = bool(s.size > 1 and np.any(-np.diff(s) <= t_deg))
    s.setflags(write=False)
    left.setflags(write=False)
    right.setflags(write=False)
    return SchmidtDecomposition(
        cut=tuple(cut),
        complement=tuple(complement),
        coefficients=s,
        left_vectors=left,
        right_vectors=right,
        degenerate=degenerate,
        dims=state.dims,
    )
