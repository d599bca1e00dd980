"""Brute-force reference implementations for validating the main algorithms.

These deliberately share no code with the production decomposition beyond
the elementary tensor primitives: eigendecompositions are taken raw from
numpy, graph components are found by naive breadth-first search, and
maximality is checked by exhaustive enumeration of support bipartitions.
They are meant to be slow, obvious, and independently convincing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .decomposition import W_MIN, Branch, BranchDecomposition
from .errors import DegenerateSpectrumError
from .tensor import StateTensor, apply_matrix_at, partial_trace
from .tolerances import DEFAULT_TOLERANCES, Tolerances

ORACLE_MAX_DIM = 256


def _project(amps: np.ndarray, dims, n: int, basis: np.ndarray) -> np.ndarray:
    """``amps`` projected at subsystem ``n`` onto the span of the orthonormal
    columns of ``basis``, by the dense projector basis basis^H."""
    return apply_matrix_at(amps, dims, n, basis @ basis.conj().T)


def _descending_eigensystem(matrix: np.ndarray):
    vals, vecs = np.linalg.eigh(matrix)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def _support_eigensystem(matrix: np.ndarray, t_supp: float):
    vals, vecs = _descending_eigensystem(matrix)
    rank = int(np.count_nonzero(vals > t_supp))
    return vals[:rank], vecs[:, :rank], vals[rank:]


def oracle_maximal_nondegenerate(
    state: StateTensor, tol: Tolerances = DEFAULT_TOLERANCES
) -> BranchDecomposition:
    """Finest locally orthogonal decomposition, by the direct construction.

    One graph node per local support eigenvector; an edge whenever the
    joint projection of the state onto two nodes on distinct subsystems
    has nonzero squared norm; one branch per connected component, obtained
    by projecting the state onto the component's subsystem-0 eigenvectors.

    Refuses degenerate local spectra, where eigenvectors are not
    individually well defined: any gap at or below t_deg between
    consecutive eigenvalues reaching into the support raises
    DegenerateSpectrumError.
    """
    spectra = []
    for n in range(state.n_subsystems):
        rho = partial_trace(state, [n])
        sup_vals, sup_vecs, rest = _support_eigensystem(rho, tol.t_supp)
        all_vals = np.concatenate([sup_vals, rest])
        for k in range(min(len(sup_vals), len(all_vals) - 1)):
            if all_vals[k] - all_vals[k + 1] <= tol.t_deg:
                raise DegenerateSpectrumError(
                    f"subsystem {n} has a spectral gap of "
                    f"{all_vals[k] - all_vals[k + 1]:.3e} at or below t_deg; "
                    "eigenvectors are not individually well defined"
                )
        spectra.append(sup_vecs)

    nodes = [
        (n, k) for n in range(state.n_subsystems) for k in range(spectra[n].shape[1])
    ]
    columns = {(n, k): spectra[n][:, [k]] for (n, k) in nodes}
    adjacency = {node: [] for node in nodes}
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if a[0] == b[0]:
                continue
            vec = _project(state.amps, state.dims, a[0], columns[a])
            vec = _project(vec, state.dims, b[0], columns[b])
            weight = float(np.vdot(vec, vec).real)
            if weight > tol.t_edge:
                adjacency[a].append(b)
                adjacency[b].append(a)

    components = []
    seen = set()
    for start in nodes:
        if start in seen:
            continue
        component = []
        queue = [start]
        seen.add(start)
        while queue:
            node = queue.pop()
            component.append(node)
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        components.append(sorted(component))

    branches = []
    for component in components:
        bases = []
        for n in range(state.n_subsystems):
            cols = [spectra[n][:, [k]] for (sub, k) in component if sub == n]
            if not cols:
                raise DegenerateSpectrumError(
                    "a component misses a subsystem entirely; the state is outside "
                    "this oracle's non-degenerate regime"
                )
            bases.append(np.hstack(cols))
        vec = _project(state.amps, state.dims, 0, bases[0])
        weight = float(np.vdot(vec, vec).real)
        branches.append(Branch(weight, vec / math.sqrt(weight), tuple(bases)))
    return BranchDecomposition.from_branches(state, branches)


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of the exhaustive maximality search.

    verdict is "pass" (no branch splits), "fail" (an explicit split was
    found; always trustworthy), or "inconclusive" (no split found, but some
    branch had degenerate local spectra, where the enumeration over
    eigenvector subsets is not exhaustive).
    """

    verdict: str
    detail: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def failed(self) -> bool:
        return self.verdict == "fail"


def _supports_orthogonal(va: np.ndarray, vb: np.ndarray, dims, t_supp: float) -> bool:
    """Do the two (unnormalized) vectors have orthogonal local supports everywhere?"""
    sa = StateTensor(dims, va)
    sb = StateTensor(dims, vb)
    for n in range(len(dims)):
        _, basis_a, _ = _support_eigensystem(partial_trace(sa, [n]), t_supp)
        _, basis_b, _ = _support_eigensystem(partial_trace(sb, [n]), t_supp)
        overlap = float(np.linalg.norm(basis_a.conj().T @ basis_b, 2))
        if overlap > 1e-8:
            return False
    return True


def oracle_verify_maximality_small(d: BranchDecomposition) -> OracleVerdict:
    """Exhaustively search every branch for a nontrivial locally orthogonal split.

    For each branch and each subsystem, enumerates all bipartitions of the
    branch-local support eigenvectors, projects the branch onto each side,
    and checks the two parts for orthogonal local supports on every
    subsystem.  Any split found is a definitive failure certificate, even
    when spectra are degenerate; a clean sweep is only a pass when every
    branch-local spectrum was non-degenerate, and is reported inconclusive
    otherwise.  Supports and degeneracy are judged at ``DEFAULT_TOLERANCES``,
    which no caller sets: a larger cutoff could hide a split.
    """
    tol = DEFAULT_TOLERANCES
    state = d.state
    dims = state.dims
    if state.total_dim > ORACLE_MAX_DIM:
        raise ValueError(
            f"total dimension {state.total_dim} exceeds the oracle limit {ORACLE_MAX_DIM}"
        )
    any_degenerate = False
    for i, branch in enumerate(d.branches):
        branch_state = StateTensor(dims, branch.vector)
        for n in range(len(dims)):
            rho = partial_trace(branch_state, [n])
            sup_vals, sup_vecs, _ = _support_eigensystem(rho, tol.t_supp)
            rank = len(sup_vals)
            if rank >= 2 and np.min(sup_vals[:-1] - sup_vals[1:]) <= tol.t_deg:
                any_degenerate = True
            if rank < 2:
                continue
            # enumerate subsets containing eigenvector 0: each bipartition once
            for r in range(0, rank - 1):
                for rest in itertools.combinations(range(1, rank), r):
                    basis = sup_vecs[:, [0] + list(rest)]
                    va = _project(branch_state.amps, dims, n, basis)
                    wa = float(np.vdot(va, va).real)
                    vb = branch_state.amps - va
                    wb = float(np.vdot(vb, vb).real)
                    if wa <= W_MIN or wb <= W_MIN:
                        continue
                    if _supports_orthogonal(va, vb, dims, tol.t_supp):
                        return OracleVerdict(
                            "fail",
                            f"branch {i} splits along subsystem {n} "
                            f"eigenvectors {[0] + list(rest)} "
                            f"(weights {wa:.6f}/{wb:.6f})",
                        )
    if any_degenerate:
        return OracleVerdict(
            "inconclusive",
            "no split found, but degenerate branch-local spectra limit the search",
        )
    return OracleVerdict("pass", "no branch admits a nontrivial split")
