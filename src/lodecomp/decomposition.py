"""Locally orthogonal branch decompositions of multipartite pure states.

A branch decomposition splits a state into a weighted sum of orthonormal
branch vectors whose per-subsystem reduced states occupy mutually
orthogonal subspaces, so a local measurement on any single subsystem
reveals the branch.  This module houses the data model, verification,
the coarse/fine-graining algebra, and the construction of the finest
(maximal) such decomposition:

* fast path: when every local spectrum is non-degenerate, local
  eigenvectors become graph nodes, joined when their joint projection of
  the state is nonzero; connected components are the branches;
* robust path: degenerate spectra are handled by first splitting each
  local support into the finest subspace partition that block-diagonalizes
  the family of pairwise correlation operators (a randomized simultaneous
  block diagonalization), then running the same component assembly over
  blocks, and finally re-refining each multi-dimensional branch until a
  fixpoint.

All functions are pure and deterministic given their seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalConsistencyError, UnsupportedOperationError
from .spectral import cluster_eigenvalues, local_spectrum, schmidt_decompose
from .tensor import StateTensor, apply_matrix_at, partial_trace
from .tolerances import DEFAULT_TOLERANCES, Tolerances

VERIFY_ATOL = 1e-9


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True, eq=False)
class Branch:
    """One branch: weight, normalized vector, per-subsystem support bases."""

    weight: float
    vector: np.ndarray = field(repr=False)
    supports: tuple = field(repr=False)

    def __init__(self, weight, vector, supports):
        weight = float(weight)
        vec = np.asarray(vector, dtype=np.complex128).reshape(-1)
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"branch vector must be normalized, got norm {norm}")
        sup = []
        for b in supports:
            b = np.asarray(b, dtype=np.complex128)
            if b.ndim == 1:
                b = b[:, None]
            b = b.copy()
            b.setflags(write=False)
            sup.append(b)
        vec = vec.copy()
        vec.setflags(write=False)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "supports", tuple(sup))

    @property
    def support_ranks(self) -> tuple:
        return tuple(b.shape[1] for b in self.supports)


@dataclass(frozen=True, eq=False)
class BranchDecomposition:
    """A locally orthogonal decomposition of a state into branches.

    Branches are kept in canonical order: weights descending, ties broken
    by a basis-independent key derived from the subsystem-0 support
    projector.  Use :func:`verify_lo` to check the decomposition's
    invariants numerically.
    """

    state: StateTensor
    branches: tuple

    def __init__(self, state, branches):
        branches = tuple(branches)
        if not branches:
            raise ValueError("a decomposition needs at least one branch")
        for br in branches:
            if br.vector.size != state.total_dim:
                raise ValueError("branch vector length does not match the state")
            if len(br.supports) != state.n_subsystems:
                raise ValueError("branch must carry one support basis per subsystem")
            for n, b in enumerate(br.supports):
                if b.shape[0] != state.dims[n]:
                    raise ValueError(
                        f"support basis on subsystem {n} has dimension {b.shape[0]}, "
                        f"expected {state.dims[n]}"
                    )
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "branches", branches)

    @classmethod
    def from_branches(cls, state, branches) -> "BranchDecomposition":
        """Build a decomposition with branches sorted into canonical order."""
        ordered = sorted(branches, key=_branch_sort_key)
        return cls(state, ordered)

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    @property
    def weights(self) -> np.ndarray:
        return np.array([br.weight for br in self.branches])

    def support(self, subsystem: int, branch: int) -> np.ndarray:
        """Orthonormal basis of the given branch's support on one subsystem."""
        return self.branches[branch].supports[subsystem]


def _projector_key(basis: np.ndarray):
    """Basis-independent, deterministic sort key for a subspace."""
    proj = basis @ basis.conj().T
    flat = proj.reshape(-1)
    return tuple(
        (-round(float(x.real), 10), -round(float(x.imag), 10)) for x in flat
    )


def _branch_sort_key(branch: Branch):
    return (-round(branch.weight, 12), _projector_key(branch.supports[0]))


def _project_support(vec: np.ndarray, dims, n: int, basis: np.ndarray) -> np.ndarray:
    """Apply the projector onto ``span(basis)`` at subsystem ``n``."""
    return apply_matrix_at(vec, dims, n, basis @ basis.conj().T)


def _supports_from_vector(vec: np.ndarray, dims, t_supp: float) -> tuple:
    """Per-subsystem support bases of a normalized vector's reduced states."""
    state = StateTensor(dims, vec)
    return tuple(
        local_spectrum(state, n, t_supp=t_supp).support_basis
        for n in range(len(dims))
    )


def trivial_decomposition(
    state: StateTensor, tol: Tolerances = DEFAULT_TOLERANCES
) -> BranchDecomposition:
    """The one-branch decomposition: the state itself with its full supports."""
    supports = _supports_from_vector(state.amps, state.dims, tol.t_supp)
    return BranchDecomposition(state, [Branch(1.0, state.amps, supports)])


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of :func:`verify_lo`: one entry per structural check."""

    checks: tuple
    passed: bool

    @property
    def worst(self):
        """The failed check with the largest residual, or None if all passed."""
        failed = [c for c in self.checks if not c.passed]
        if not failed:
            return None
        return max(failed, key=lambda c: c.residual)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{status}  {c.name}: residual {c.residual:.3e} (tol {c.tolerance:.0e})")
        return "\n".join(lines)


def verify_lo(d: BranchDecomposition, tol: Tolerances = DEFAULT_TOLERANCES) -> VerificationReport:
    """Check every invariant of a branch decomposition numerically.

    Failures are reported, never raised.  The checks cover weight
    positivity and normalization, branch orthonormality, reconstruction of
    the state, orthonormality and mutual orthogonality of the
    per-subsystem supports, the branch-count bound, and the defining
    projector identity.

    Write B_n^i for branch i's support basis on subsystem n, P_n^i for its
    projector B_n^i B_n^i^H, and psi for the state.  Both support checks
    read the Gram matrix Q_n^H Q_n of the stacked supports
    Q_n = (B_n^1 ... B_n^k): ``support_orthonormality`` is the largest
    spectral norm eps_s of a diagonal block less the identity, and
    ``local_orthogonality`` the largest spectral norm eps_o of an
    off-diagonal block.

    ``projector_identity`` is checked per (subsystem, branch): r is the
    largest ||P_n^i psi - sqrt(w_i) v_i||, from one batched product per
    subsystem.  The full identity P_n^i P_m^j psi = delta_ij sqrt(w_i) v_i
    over all N^2 k^2 subsystem and branch pairs follows from it.  With
    e_n^i = P_n^i psi - sqrt(w_i) v_i,

    * i = j:  P_n^i P_m^i psi - sqrt(w_i) v_i
      = (P_n^i P_n^i - P_n^i) psi + (1 - P_n^i) e_n^i + P_n^i e_m^i;
    * i != j:  P_n^i P_m^j psi = P_n^i P_n^j psi + P_n^i (e_m^j - e_n^j);

    and ||P_n^i|| <= 1 + eps_s, ||P_n^i P_n^i - P_n^i|| <= eps_s (1 + eps_s),
    ||P_n^i P_n^j|| <= (1 + eps_s) eps_o.  So once both support checks pass,
    every term of the full identity is at most
    (1 + eps_s)(2 r + VERIFY_ATOL).  The tolerance on r is
    (t_nindep - 2 VERIFY_ATOL) / 2, at which that bound stays below
    t_nindep: a decomposition that passes here passes the full identity at
    t_nindep, so this check is no looser.
    """
    state = d.state
    dims = state.dims
    k = d.n_branches
    weights = d.weights
    vectors = np.stack([br.vector for br in d.branches])
    checks = []

    def add(name, residual, tolerance):
        residual = float(residual)
        checks.append(CheckResult(name, residual, tolerance, residual <= tolerance))

    add("weights_positive", max(0.0, tol.w_min - float(weights.min())), 0.0)
    add("weight_sum", abs(float(weights.sum()) - 1.0), VERIFY_ATOL)

    gram = vectors.conj() @ vectors.T
    add("branch_orthonormality", np.max(np.abs(gram - np.eye(k))), VERIFY_ATOL)

    scales = np.sqrt(weights.astype(complex))
    reconstructed = scales @ vectors
    add("reconstruction", np.linalg.norm(reconstructed - state.amps), VERIFY_ATOL)

    targets = vectors
    targets *= scales[:, None]  # in place: sqrt(w_i) v_i; the vectors are not needed again
    sup_dev = overlap = identity_res = 0.0
    for n in range(state.n_subsystems):
        # Q[i] = (B_n^i | 0): supports zero-padded to a common rank, so one
        # batched product serves all branches; the padding adds zero rows and
        # columns to the Gram blocks, which leaves their spectral norms alone
        ranks = np.array([br.supports[n].shape[1] for br in d.branches])
        rank = int(ranks.max())
        q = np.zeros((k, dims[n], rank), dtype=np.complex128)
        for i, br in enumerate(d.branches):
            q[i, :, : ranks[i]] = br.supports[n]
        qh = q.conj().swapaxes(1, 2)
        blocks = np.matmul(qh[:, None], q[None])
        in_rank = np.arange(rank) < ranks[:, None]
        blocks[np.arange(k), np.arange(k)] -= in_rank[:, :, None] * np.eye(rank)
        norms = np.linalg.norm(blocks, ord=2, axis=(-2, -1))
        sup_dev = max(sup_dev, float(norms.diagonal().max()))
        if k > 1:
            overlap = max(overlap, float(norms[~np.eye(k, dtype=bool)].max()))
        # all k projections P_n^i psi at once, from the stacked (k d_n, d_n) projectors
        pre = math.prod(dims[:n])
        projected = apply_matrix_at(state.amps, dims, n, (q @ qh).reshape(-1, dims[n]))
        diff = projected.reshape(pre, k, -1)
        diff -= targets.reshape(k, pre, -1).swapaxes(0, 1)
        pairs = diff.view(np.float64)  # (re, im) pairs: squared norms with no complex temporary
        worst = float(np.einsum("pkx,pkx->k", pairs, pairs).max())
        identity_res = max(identity_res, math.sqrt(worst))
    add("support_orthonormality", sup_dev, VERIFY_ATOL)
    add("local_orthogonality", overlap, VERIFY_ATOL)
    add("branch_count", max(0, k - min(dims)), 0.0)
    add("projector_identity", identity_res, (tol.t_nindep - 2 * VERIFY_ATOL) / 2)

    return VerificationReport(tuple(checks), all(c.passed for c in checks))


# ---------------------------------------------------------------------------
# coarse- and fine-graining algebra


def coarse_grain(d: BranchDecomposition, merge) -> BranchDecomposition:
    """Merge branches by vector addition according to a partition.

    Parameters
    ----------
    merge : iterable of iterables of int
        Partition of the branch indices of ``d``.  Each class becomes one
        branch whose vector is the weighted sum of the class members and
        whose supports are the direct sums of the members' supports.
    """
    classes = [sorted(int(i) for i in cls) for cls in merge]
    flat = sorted(i for cls in classes for i in cls)
    if flat != list(range(d.n_branches)):
        raise ValueError("merge must be a partition of the branch indices")
    merged = []
    for cls in classes:
        members = [d.branches[i] for i in cls]
        summed = sum(math.sqrt(br.weight) * br.vector for br in members)
        weight = float(np.vdot(summed, summed).real)
        supports = tuple(
            np.hstack([br.supports[n] for br in members])
            for n in range(d.state.n_subsystems)
        )
        merged.append(Branch(weight, summed / math.sqrt(weight), supports))
    return BranchDecomposition.from_branches(d.state, merged)


def common_fine_graining(
    d1: BranchDecomposition,
    d2: BranchDecomposition,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> BranchDecomposition:
    """The joint refinement of two decompositions of the same state.

    Each output branch is the state's component inside one subspace
    intersection: apply the full product of d1's branch-i support
    projectors to d2's weighted branch k (equivalently, d2's projectors to
    d1's branch i; the two evaluation orders are computed and must agree).
    Pairs whose component vanishes are dropped.  Both inputs are
    coarse-grainings of the result.

    Raises
    ------
    ValueError
        If the two decompositions do not share the same state.
    UnsupportedOperationError
        For bipartite states, where the construction is not guaranteed.
    InternalConsistencyError
        If the two evaluation orders disagree beyond tolerance, which
        signals that an input was not locally orthogonal to begin with.
    """
    if d1.state.dims != d2.state.dims:
        raise ValueError(f"dimension mismatch: {d1.state.dims} vs {d2.state.dims}")
    if float(np.linalg.norm(d1.state.amps - d2.state.amps)) > 1e-9:
        raise ValueError("decompositions must be of the same state")
    dims = d1.state.dims
    if len(dims) == 2:
        raise UnsupportedOperationError(
            "common fine-graining is only available for three or more subsystems"
        )
    branches = []
    for bk in d2.branches:
        scaled_k = math.sqrt(bk.weight) * bk.vector
        for bi in d1.branches:
            v = scaled_k
            for n in range(len(dims)):
                v = _project_support(v, dims, n, bi.supports[n])
            u = math.sqrt(bi.weight) * bi.vector
            for n in range(len(dims)):
                u = _project_support(u, dims, n, bk.supports[n])
            order_gap = float(np.linalg.norm(v - u))
            if order_gap > 1e-9:
                raise InternalConsistencyError(
                    f"fine-graining evaluation orders disagree by {order_gap:.3e}; "
                    "an input decomposition is not locally orthogonal",
                )
            weight = float(np.vdot(v, v).real)
            if weight <= tol.w_min:
                continue
            vec = v / math.sqrt(weight)
            branches.append(Branch(weight, vec, _supports_from_vector(vec, dims, tol.t_supp)))
    return BranchDecomposition.from_branches(d1.state, branches)


# ---------------------------------------------------------------------------
# correlation graph


class _UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, a):
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:  # path compression
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def groups(self):
        byroot = {}
        for a in range(len(self.parent)):
            byroot.setdefault(self.find(a), []).append(a)
        return [tuple(byroot[r]) for r in sorted(byroot)]


@dataclass(frozen=True, eq=False)
class GraphNode:
    subsystem: int
    block: int
    basis: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class CorrelationGraph:
    """Graph over local subspace blocks, joined by nonzero joint projections.

    Nodes are (subsystem, block) pairs; an edge connects blocks on distinct
    subsystems whose joint projection of the state has squared norm above
    the edge threshold.  ``components`` partitions the node indices; the
    extreme accepted/rejected edge weights are kept for diagnosing marginal
    cases.
    """

    nodes: tuple
    edges: tuple
    components: tuple
    min_accepted_edge: float | None
    max_rejected_edge: float | None


def build_correlation_graph(
    state: StateTensor,
    blocks,
    t_edge: float = DEFAULT_TOLERANCES.t_edge,
    t_supp: float = DEFAULT_TOLERANCES.t_supp,
) -> CorrelationGraph:
    """Build the block correlation graph of a state.

    The weight of the edge between block a on subsystem n and block b on
    subsystem m is the squared joint projection ||P_n^a P_m^b psi||^2.
    With orthonormal blocks this is ||(B_a^H x B_b^H) psi||^2, so all
    weights of a subsystem pair come from one marginal: rotate psi by
    Q_n^H on n and Q_m^H on m, where Q_n stacks subsystem n's blocks, and
    sum |phi|^2 over the other subsystems, which stay unrotated:

        M_nm[x, y] = sum over the other indices of |phi[..., x, ..., y, ...]|^2
        weight((n, a), (m, b)) = sum of M_nm[x, y] over x in a, y in b

    That is one rotation per subsystem and one per pair, in place of one
    full-vector projection per node pair.

    Parameters
    ----------
    blocks : sequence of sequences of arrays
        For each subsystem, a list of orthonormal bases.  Per subsystem the
        blocks must be mutually orthogonal and jointly span exactly the
        local support of the reduced state.
    """
    dims = state.dims
    if len(blocks) != state.n_subsystems:
        raise ValueError("need one block list per subsystem")
    nodes = []
    stacks = []
    starts = []
    for n, sub_blocks in enumerate(blocks):
        bases = []
        for b in sub_blocks:
            b = np.asarray(b, dtype=np.complex128)
            if b.ndim == 1:
                b = b[:, None]
            if b.shape[0] != dims[n] or b.shape[1] == 0:
                raise ValueError(f"block on subsystem {n} has wrong shape {b.shape}")
            bases.append(b)
        if not bases:
            raise ValueError(f"subsystem {n} has no blocks")
        stacked = np.hstack(bases)
        gram = stacked.conj().T @ stacked
        if float(np.max(np.abs(gram - np.eye(stacked.shape[1])))) > 1e-8:
            raise ValueError(f"blocks on subsystem {n} are not mutually orthonormal")
        support = local_spectrum(state, n, t_supp=t_supp).support_basis
        coverage = support - stacked @ (stacked.conj().T @ support)
        containment = stacked - support @ (support.conj().T @ stacked)
        if float(np.linalg.norm(coverage)) > 1e-8 or float(np.linalg.norm(containment)) > 1e-8:
            raise ValueError(f"blocks on subsystem {n} do not span the local support exactly")
        for k, b in enumerate(bases):
            nodes.append(GraphNode(n, k, b))
        stacks.append(stacked)
        starts.append(np.cumsum([0] + [b.shape[1] for b in bases[:-1]]))

    pair_weights = {}
    for n in range(state.n_subsystems - 1):
        phi_n = apply_matrix_at(state.amps, dims, n, stacks[n].conj().T)
        dims_n = dims[:n] + (stacks[n].shape[1],) + dims[n + 1:]
        for m in range(n + 1, state.n_subsystems):
            phi = apply_matrix_at(phi_n, dims_n, m, stacks[m].conj().T)
            shape = (
                math.prod(dims[:n]), dims_n[n], math.prod(dims[n + 1:m]),
                stacks[m].shape[1], math.prod(dims[m + 1:]),
            )
            marginal = (phi.real**2 + phi.imag**2).reshape(shape).sum(axis=(0, 2, 4))
            marginal = np.add.reduceat(marginal, starts[n], axis=0)
            pair_weights[n, m] = np.add.reduceat(marginal, starts[m], axis=1)
    uf = _UnionFind(len(nodes))
    edges = []
    min_accepted = None
    max_rejected = None
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            if nodes[a].subsystem == nodes[b].subsystem:
                continue
            pair = pair_weights[nodes[a].subsystem, nodes[b].subsystem]
            weight = float(pair[nodes[a].block, nodes[b].block])
            if weight > t_edge:
                edges.append((a, b, weight))
                uf.union(a, b)
                min_accepted = weight if min_accepted is None else min(min_accepted, weight)
            else:
                max_rejected = weight if max_rejected is None else max(max_rejected, weight)
    components = tuple(uf.groups())
    for comp in components:
        touched = {nodes[i].subsystem for i in comp}
        if touched != set(range(state.n_subsystems)):
            raise InternalConsistencyError(
                "a correlation-graph component misses a subsystem with nontrivial support; "
                "edge threshold is inconsistent with the state"
            )
    return CorrelationGraph(tuple(nodes), tuple(edges), components, min_accepted, max_rejected)


# ---------------------------------------------------------------------------
# randomized simultaneous block diagonalization of the correlation family


def _correlation_family(state: StateTensor, n: int, support: np.ndarray):
    """Hermitian correlation operators on subsystem ``n``'s support.

    For every other subsystem m and local basis pair (a, b), the operator
    with entries ``rho[(x,a),(y,b)]`` of the two-subsystem reduced state is
    block-diagonal with respect to any locally orthogonal decomposition's
    subsystem-n subspaces, as are its Hermitian and anti-Hermitian parts.
    The local density operator itself is included as well.  All members
    are compressed onto the support basis.
    """
    dims = state.dims
    d_n = dims[n]
    members = []

    rho_n = partial_trace(state, [n]).matrix
    members.append(support.conj().T @ rho_n @ support)

    for m in range(state.n_subsystems):
        if m == n:
            continue
        d_m = dims[m]
        rho_pair = partial_trace(state, [n, m]).matrix
        if n < m:
            rho4 = rho_pair.reshape(d_n, d_m, d_n, d_m)
        else:
            rho4 = rho_pair.reshape(d_m, d_n, d_m, d_n).transpose(1, 0, 3, 2)
        for a in range(d_m):
            for b in range(a, d_m):
                block = rho4[:, a, :, b]
                herm = (block + block.conj().T) / 2.0
                anti = (block - block.conj().T) / 2.0j
                for part in (herm, anti):
                    compressed = support.conj().T @ part @ support
                    if float(np.linalg.norm(compressed)) > 1e-14:
                        members.append(compressed)
    return members


def _merge_coupled(parts, family, t_edge: float):
    """Re-merge candidate parts coupled by any family member's cross block."""
    uf = _UnionFind(len(parts))
    for fam in family:
        for a in range(len(parts)):
            fa = fam @ parts[a]
            for b in range(a + 1, len(parts)):
                cross = parts[b].conj().T @ fa
                if float(np.linalg.norm(cross)) > t_edge:
                    uf.union(a, b)
    return [np.hstack([parts[i] for i in grp]) for grp in uf.groups()]


def _sbd_partition(state: StateTensor, n: int, tol: Tolerances, rng) -> list:
    spec = local_spectrum(state, n, tol.t_deg, tol.t_supp)
    support = spec.support_basis
    rank = support.shape[1]
    if rank == 1:
        return [support]
    family = _correlation_family(state, n, support)
    parts = [np.eye(rank, dtype=np.complex128)]
    stable = 0
    rounds = 0
    while stable < tol.sbd_stable_rounds:
        rounds += 1
        if rounds > 50 * rank:
            raise InternalConsistencyError(
                f"block-diagonalization failed to stabilize on subsystem {n}"
            )
        count_before = len(parts)
        coeffs = rng.standard_normal(len(family))
        combined = sum(c * f for c, f in zip(coeffs, family))
        candidates = []
        for basis in parts:
            if basis.shape[1] == 1:
                candidates.append(basis)
                continue
            compressed = basis.conj().T @ combined @ basis
            vals, vecs = np.linalg.eigh(compressed)
            order = np.argsort(vals)[::-1]
            vals, vecs = vals[order], vecs[:, order]
            for cluster in cluster_eigenvalues(vals, tol.t_deg):
                candidates.append(basis @ vecs[:, list(cluster)])
        # merge-back keeps the search sound: a split that any family member
        # couples across is undone, and since cross-block norms can only
        # shrink under sub-splitting, merges never cross boundaries of the
        # previous partition -- the loop refines monotonically.
        parts = _merge_coupled(candidates, family, tol.t_edge)
        if len(parts) == count_before:
            stable += 1
        else:
            stable = 0
    parts.sort(key=_projector_key)
    return [support @ basis for basis in parts]


def sbd_refine(
    state: StateTensor,
    n: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
    seed: int = 0,
) -> list:
    """Finest partition of a subsystem's support that the state's pairwise
    correlations cannot distinguish further.

    Draws random Hermitian combinations of the correlation family, splits
    the current subspaces along their eigenvalue clusters, merges back any
    split that some family member couples across, and stops after the
    configured number of consecutive stable rounds.  Deterministic for a
    fixed seed.

    Returns
    -------
    list of numpy.ndarray
        Orthonormal bases (columns) of the partition, in a deterministic
        order.
    """
    if state.n_subsystems == 2:
        raise UnsupportedOperationError(
            "correlation-family refinement needs at least three subsystems"
        )
    if not 0 <= n < state.n_subsystems:
        raise ValueError(f"subsystem index {n} out of range")
    return _sbd_partition(state, n, tol, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# assembly of branches from block partitions


class _DiagnosticsAccumulator:
    def __init__(self):
        self.n_independence = 0.0
        self.min_accepted_edge = None
        self.max_rejected_edge = None

    def record_graph(self, graph: CorrelationGraph):
        if graph.min_accepted_edge is not None:
            self.min_accepted_edge = (
                graph.min_accepted_edge
                if self.min_accepted_edge is None
                else min(self.min_accepted_edge, graph.min_accepted_edge)
            )
        if graph.max_rejected_edge is not None:
            self.max_rejected_edge = (
                graph.max_rejected_edge
                if self.max_rejected_edge is None
                else max(self.max_rejected_edge, graph.max_rejected_edge)
            )

    def record_residual(self, value: float):
        self.n_independence = max(self.n_independence, value)


def _compress_vector(vec: np.ndarray, dims, bases) -> np.ndarray:
    arr = vec.reshape(dims)
    for basis in bases:
        arr = np.tensordot(arr, basis.conj(), axes=([0], [0]))
    return arr.reshape(-1)


def _expand_vector(vec: np.ndarray, ranks, bases) -> np.ndarray:
    arr = vec.reshape(ranks)
    for basis in bases:
        arr = np.tensordot(arr, basis, axes=([0], [1]))
    return arr.reshape(-1)


def _extract_component_branches(state, partitions, tol, acc):
    graph = build_correlation_graph(state, partitions, tol.t_edge, tol.t_supp)
    acc.record_graph(graph)
    dims = state.dims
    branches = []
    for comp in graph.components:
        bases = []
        for n in range(state.n_subsystems):
            cols = [graph.nodes[i].basis for i in comp if graph.nodes[i].subsystem == n]
            bases.append(np.hstack(cols))
        vectors = [_project_support(state.amps, dims, n, bases[n]) for n in range(len(dims))]
        residual = 0.0
        for a in range(len(vectors)):
            for b in range(a + 1, len(vectors)):
                residual = max(residual, float(np.linalg.norm(vectors[a] - vectors[b])))
        acc.record_residual(residual)
        if residual > tol.t_nindep:
            raise InternalConsistencyError(
                f"branch extraction is subsystem-dependent (residual {residual:.3e}); "
                "the block partition is inconsistent with the state"
            )
        weight = float(np.vdot(vectors[0], vectors[0]).real)
        if weight <= tol.w_min:
            continue
        branches.append(Branch(weight, vectors[0] / math.sqrt(weight), tuple(bases)))
    return branches


def _refine_branch(state, branch, tol, seed_seq, acc):
    ranks = branch.support_ranks
    if min(ranks) < 2:
        return [branch]
    sub_amps = _compress_vector(branch.vector, state.dims, branch.supports)
    sub_state = StateTensor(ranks, sub_amps)
    sub_branches, _, _ = _decompose_multipartite(sub_state, tol, seed_seq, acc)
    if len(sub_branches) == 1:
        return [branch]
    out = []
    for sb in sub_branches:
        vec = _expand_vector(sb.vector, ranks, branch.supports)
        supports = tuple(
            branch.supports[n] @ sb.supports[n] for n in range(state.n_subsystems)
        )
        out.append(Branch(branch.weight * sb.weight, vec, supports))
    return out


def _assemble_and_refine(state, partitions, tol, seed_seq, acc):
    branches = _extract_component_branches(state, partitions, tol, acc)
    if len(branches) == 1:
        # the restriction to a single branch is the problem itself;
        # re-running it cannot reveal anything new
        return branches
    refined = []
    for branch in branches:
        refined.extend(_refine_branch(state, branch, tol, seed_seq, acc))
    return refined


def assemble_branches(
    state: StateTensor,
    partitions,
    tol: Tolerances = DEFAULT_TOLERANCES,
    seed: int = 0,
) -> BranchDecomposition:
    """Assemble a decomposition from per-subsystem support partitions.

    Builds the block correlation graph, turns its connected components
    into branches, checks that the extracted branch vector is independent
    of which subsystem's projector produced it, and then re-refines every
    multi-dimensional branch (restricted to its own supports) until no
    branch splits further.  A sub-split of one branch stays orthogonal to
    all sibling branches' subspaces, so the refinement is sound.
    """
    if state.n_subsystems == 2:
        raise UnsupportedOperationError("block assembly needs at least three subsystems")
    acc = _DiagnosticsAccumulator()
    branches = _assemble_and_refine(state, partitions, tol, np.random.SeedSequence(seed), acc)
    return BranchDecomposition.from_branches(state, branches)


def _decompose_multipartite(state, tol, seed_seq, acc):
    spectra = [
        local_spectrum(state, n, tol.t_deg, tol.t_supp) for n in range(state.n_subsystems)
    ]
    degenerate = tuple(n for n, s in enumerate(spectra) if s.is_support_degenerate)
    if not degenerate:
        partitions = [
            [s.eigenvectors[:, [k]] for k in range(s.support_rank)] for s in spectra
        ]
        path = "eigenvector-graph"
    else:
        partitions = []
        for n in range(state.n_subsystems):
            rng = np.random.default_rng(seed_seq.spawn(1)[0])
            partitions.append(_sbd_partition(state, n, tol, rng))
        path = "block-sbd"
    branches = _assemble_and_refine(state, partitions, tol, seed_seq, acc)
    return branches, path, degenerate


def _decompose_bipartite(state, tol):
    schmidt = schmidt_decompose(state, [0], tol.t_deg, tol.t_supp)
    branches = []
    for k in range(schmidt.rank):
        left = schmidt.left_vectors[:, [k]]
        right = schmidt.right_vectors[:, [k]]
        vec = np.kron(left[:, 0], right[:, 0])
        branches.append(Branch(float(schmidt.coefficients[k] ** 2), vec, (left, right)))
    return branches, schmidt.degenerate


# ---------------------------------------------------------------------------
# the maximal decomposition


@dataclass(frozen=True)
class Diagnostics:
    """How a maximal decomposition was obtained, and how cleanly."""

    path: str
    seed: int | None
    tolerances: Tolerances
    n_independence_residual: float
    min_accepted_edge: float | None
    max_rejected_edge: float | None
    degenerate_subsystems: tuple
    non_unique: bool
    weights: tuple


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    decomposition: BranchDecomposition
    diagnostics: Diagnostics
    verification: VerificationReport


def maximal_decomposition(
    state: StateTensor,
    tol: Tolerances = DEFAULT_TOLERANCES,
    seed: int = 0,
) -> DecompositionResult:
    """Compute the finest locally orthogonal decomposition of a state.

    For two subsystems this is a Schmidt decomposition (one branch per
    retained singular value); degenerate coefficients make the choice
    non-unique, which is flagged in the diagnostics rather than resolved.
    For three or more subsystems the decomposition is unique.  When every
    local spectrum is non-degenerate the eigenvector correlation graph is
    used directly; otherwise local supports are first partitioned by the
    randomized block-diagonalization of the correlation family.

    Raises
    ------
    InternalConsistencyError
        If the constructed decomposition fails verification, which
        indicates a tolerance breakdown; a bad decomposition is never
        returned silently.
    """
    acc = _DiagnosticsAccumulator()
    if state.n_subsystems == 2:
        branches, degenerate = _decompose_bipartite(state, tol)
        dec = BranchDecomposition.from_branches(state, branches)
        for br in dec.branches:
            v0 = _project_support(state.amps, state.dims, 0, br.supports[0])
            v1 = _project_support(state.amps, state.dims, 1, br.supports[1])
            acc.record_residual(float(np.linalg.norm(v0 - v1)))
        diagnostics = Diagnostics(
            path="schmidt",
            seed=None,
            tolerances=tol,
            n_independence_residual=acc.n_independence,
            min_accepted_edge=None,
            max_rejected_edge=None,
            degenerate_subsystems=(0, 1) if degenerate else (),
            non_unique=degenerate,
            weights=tuple(float(w) for w in dec.weights),
        )
    else:
        seed_seq = np.random.SeedSequence(seed)
        branches, path, degenerate_subsystems = _decompose_multipartite(
            state, tol, seed_seq, acc
        )
        dec = BranchDecomposition.from_branches(state, branches)
        diagnostics = Diagnostics(
            path=path,
            seed=seed,
            tolerances=tol,
            n_independence_residual=acc.n_independence,
            min_accepted_edge=acc.min_accepted_edge,
            max_rejected_edge=acc.max_rejected_edge,
            degenerate_subsystems=degenerate_subsystems,
            non_unique=False,
            weights=tuple(float(w) for w in dec.weights),
        )
    report = verify_lo(dec, tol)
    if not report.passed:
        raise InternalConsistencyError(
            "constructed decomposition failed verification:\n" + report.summary(),
            report=report,
        )
    return DecompositionResult(dec, diagnostics, report)
