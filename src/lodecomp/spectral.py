"""Local eigensystems: the spectrum of one subsystem's reduced state.

Degeneracy is reported here, never silently resolved; structural handling
of degenerate spectra is the decomposition layer's job.  Eigenvector
phases are fixed by making the largest-magnitude component real positive
so repeated runs produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import StateTensor, partial_trace
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
