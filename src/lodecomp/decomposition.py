"""Locally orthogonal branch decompositions of multipartite pure states.

A branch decomposition splits a state into a weighted sum of orthonormal
branch vectors whose per-subsystem reduced states occupy mutually
orthogonal subspaces, so a local measurement on any single subsystem
reveals the branch.  This module houses the data model, verification
and the one construction path of the finest (maximal) such
decomposition, in one pass.  Each local support is
split along the eigenvalue clusters of its reduced state, where eigenvalues
closer than a guard gap share a cluster (eigenvectors across a narrower gap
are too inaccurate to split along): a singleton cluster into its
eigenvector, a larger one into the finest blocks of its two-subsystem
reduced states, taken in the eigenbases and divided by the
cluster's weight (a randomized simultaneous block diagonalization at the
cluster's own scale).  The blocks become graph nodes, joined when their
joint projection of the state is nonzero; connected components are the
branches.  None splits again: for N >= 3, branch i's support projector
P_n^i is a polynomial in w_i rho_n^i = Tr_m[(I x P_m^i) rho_nm], in the
span of the pair slices, so every block lies inside one branch.

Assembly rotates the state once into a full local frame on every
subsystem: rho_n's eigenbasis, each split cluster's columns turned into
its blocks, so no QR is needed.  Every graph edge is read off that one
rotated vector: N rotations in all, with no projection per node pair.
Every constructor here builds each branch from its supports alone,
v_i = P_0^i psi up to its norm, and :func:`verify_lo` alone then judges
the result; a failed check raises ``InternalConsistencyError``.

All functions are pure and deterministic: SBD draws from a generator
seeded with the constant ``SBD_SEED``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalConsistencyError, UnsupportedOperationError
from .spectral import fix_phases, local_spectrum
from .tensor import StateTensor, apply_matrix_at, basis_stack, partial_trace, project_supports
from .tolerances import DEFAULT_TOLERANCES, Tolerances

VERIFY_ATOL = 1e-9
W_MIN = 1e-12  # branch weight floor: a projected component at or below it is exactly zero
# allowed residual between branch vectors extracted via different subsystems'
# support projectors; verify_lo allows (T_NINDEP - 2 VERIFY_ATOL) / 2 per subsystem and branch
T_NINDEP = 1e-8
# eigenvalue gaps below this are left to SBD: an eigenvector across a gap g
# is accurate to about eps / g (Davis-Kahan), here 100x under VERIFY_ATOL
_GUARD_GAP = 100 * np.finfo(np.float64).eps / VERIFY_ATOL
_SBD_BATCH_ENTRIES = 1 << 20  # cap on one SBD batch's cross-block entries, rounds x layout
SBD_STABLE_ROUNDS = 3  # consecutive rounds without a split that end one cluster's SBD search
# SBD cuts each draw at eigenvalue gaps above this, relative to the cluster's
# weight; the t_edge merge undoes any cut that a pair state couples across
SBD_SPLIT_GAP = 1e-8
SBD_SEED = 0  # seeds the SBD generator; the draws choose bases inside blocks, not the blocks


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True, eq=False)
class Branch:
    """One branch: weight, normalized vector, per-subsystem support bases."""

    weight: float
    vector: np.ndarray = field(repr=False)
    supports: tuple = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "weight", float(self.weight))
        if not math.isfinite(self.weight):
            raise ValueError(f"branch weight must be finite, got {self.weight}")
        vector = np.asarray(self.vector, dtype=np.complex128).flatten()
        norm = float(np.linalg.norm(vector))
        if not abs(norm - 1.0) <= VERIFY_ATOL:  # so NaN fails too
            raise ValueError(f"branch vector must be normalized, got norm {norm}")
        supports = (np.asarray(b, dtype=np.complex128) for b in self.supports)
        supports = tuple((b[:, None] if b.ndim == 1 else b).copy() for b in supports)
        for array in (vector, *supports):
            array.setflags(write=False)
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "supports", supports)

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
        """Build a decomposition with branches sorted into canonical order.

        The order is that of the key (-round(weight, 12), :func:`_key_order`
        of the subsystem-0 supports), stable; the projector key is computed
        only within runs of equal rounded weight.
        """
        ordered = []
        for _, run in itertools.groupby(sorted(branches, key=_weight_key), key=_weight_key):
            run = list(run)
            keyed = _key_order([br.supports[0] for br in run]) if len(run) > 1 else [0]
            ordered += [run[i] for i in keyed]
        return cls(state, ordered)

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    @property
    def weights(self) -> np.ndarray:
        return np.array([br.weight for br in self.branches])


def _key_order(bases) -> np.ndarray:
    """The stable order of subspaces of one space by a basis-independent,
    deterministic key: each projector q q^H, rounded to 10 decimals and read
    row-major as (-re, -im) pairs, compared entry by entry."""
    stack = basis_stack(bases)
    projectors = (stack @ stack.conj().swapaxes(1, 2)).reshape(len(stack), -1)
    keys = -np.round(projectors.view(np.float64), 10)
    return np.lexsort(keys.T[::-1])  # lexsort's primary key is its last


def _weight_key(branch: Branch) -> float:
    return -round(branch.weight, 12)


def _local_support(state: StateTensor, n: int, t_supp: float, t_deg=DEFAULT_TOLERANCES.t_deg):
    """:func:`local_spectrum` of subsystem n, with an empty support rejected
    as invalid input: ValueError naming t_supp and the largest eigenvalue."""
    spec = local_spectrum(state, n, t_deg, t_supp)
    if not spec.support_rank:
        raise ValueError(
            f"t_supp {t_supp:g} leaves subsystem {n} no support: "
            f"its largest eigenvalue is {spec.eigenvalues[0]:.6g}"
        )
    return spec


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

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{status}  {c.name}: residual {c.residual:.3e} (tol {c.tolerance:.0e})")
        return "\n".join(lines)


def verify_lo(d: BranchDecomposition) -> VerificationReport:
    """Check every invariant of a branch decomposition numerically.

    Failures are reported, never raised, and every tolerance is a module
    constant: no caller can loosen the check.  A check's residual is the
    largest of its parts, NaN if any part is NaN.  The checks cover weight
    positivity and normalization, branch orthonormality, reconstruction of
    the state, orthonormality and mutual orthogonality of the
    per-subsystem supports, the branch-count bound, and the defining
    projector identity.

    Write B_n^i for branch i's support basis on subsystem n, P_n^i for its
    projector B_n^i B_n^i^H, and psi for the state.  Both support checks
    read the Gram matrix Q_n^H Q_n of the stacked supports
    Q_n = (B_n^1 ... B_n^k): ``support_orthonormality`` is the largest
    Frobenius norm eps_s of a diagonal block less the identity, and
    ``local_orthogonality`` the largest Frobenius norm eps_o of an
    off-diagonal block; the bounds below need only spectral norms, no larger.

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
    (T_NINDEP - 2 VERIFY_ATOL) / 2 = 4e-9, at which that bound stays below
    T_NINDEP: a decomposition that passes here passes the full identity at
    T_NINDEP, so this check is no looser.
    """
    state = d.state
    dims = state.dims
    k = d.n_branches
    weights = d.weights
    vectors = np.stack([br.vector for br in d.branches])
    checks = []

    def add(name, residuals, tolerance):
        residual = float(np.max(residuals, initial=0.0))  # NaN propagates, unlike max()
        checks.append(CheckResult(name, residual, tolerance, residual <= tolerance))

    add("weights_positive", W_MIN - weights, 0.0)
    add("weight_sum", abs(float(weights.sum()) - 1.0), VERIFY_ATOL)

    gram = vectors.conj() @ vectors.T
    add("branch_orthonormality", np.max(np.abs(gram - np.eye(k))), VERIFY_ATOL)

    scales = np.sqrt(weights.astype(complex))
    reconstructed = scales @ vectors
    add("reconstruction", np.linalg.norm(reconstructed - state.amps), VERIFY_ATOL)

    targets = vectors
    targets *= scales[:, None]  # in place: sqrt(w_i) v_i; the vectors are not needed again
    norms, identity = [], []  # per subsystem: Gram block norms, squared identity residuals
    for n in range(state.n_subsystems):
        # Q[i] = (B_n^i | 0): supports zero-padded to a common rank, so one
        # batched product serves all branches; the padding adds zero rows and
        # columns to the Gram blocks, which leaves their norms alone
        q = basis_stack([br.supports[n] for br in d.branches])
        ranks, rank = np.array([br.supports[n].shape[1] for br in d.branches]), q.shape[2]
        blocks = np.matmul(q.conj().swapaxes(1, 2)[:, None], q[None])
        in_rank = np.arange(rank) < ranks[:, None]
        blocks[np.arange(k), np.arange(k)] -= in_rank[:, :, None] * np.eye(rank)
        norms.append(np.linalg.norm(blocks, axis=(-2, -1)))
        diff = project_supports(state.amps, dims, n, q)  # all k projections P_n^i psi at once
        diff -= targets.reshape(k, len(diff), -1).swapaxes(0, 1)
        pairs = diff.view(np.float64)  # (re, im) pairs: squared norms with no complex temporary
        identity.append(np.einsum("pkx,pkx->k", pairs, pairs))
    norms, diagonal = np.array(norms), np.eye(k, dtype=bool)
    add("support_orthonormality", norms[:, diagonal], VERIFY_ATOL)
    add("local_orthogonality", norms[:, ~diagonal], VERIFY_ATOL)
    add("branch_count", k - min(dims), 0.0)
    add("projector_identity", np.sqrt(identity), (T_NINDEP - 2 * VERIFY_ATOL) / 2)

    return VerificationReport(tuple(checks), all(c.passed for c in checks))


# ---------------------------------------------------------------------------
# correlation graph


def _component_roots(linked: np.ndarray) -> np.ndarray:
    """Each node's first node in its connected component, for a symmetric
    adjacency matrix or a stack: the closure squared until it stops growing."""
    reach = (linked | np.eye(linked.shape[-1], dtype=bool)).astype(np.float32)
    while not np.array_equal(wider := np.minimum(reach @ reach, 1), reach):
        reach = wider
    return reach.argmax(axis=-1)


@dataclass(frozen=True, eq=False)
class GraphNode:
    subsystem: int
    basis: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class CorrelationGraph:
    """Graph over local subspace blocks, joined by nonzero joint projections.

    Nodes are (subsystem, block) pairs, numbered subsystem by subsystem; an
    edge connects blocks on distinct subsystems whose joint projection of
    the state has squared norm above the edge threshold.  ``components``
    partitions the node indices, and ``supports`` holds each component's
    supports: per subsystem, its blocks there stacked in frame-column order.
    The extreme accepted/rejected edge weights are kept for diagnosing
    marginal cases.
    """

    nodes: tuple
    edges: tuple
    components: tuple
    supports: tuple
    min_accepted_edge: float | None
    max_rejected_edge: float | None


def _checked_frames(state: StateTensor, blocks, t_supp: float) -> list:
    """Caller-given blocks as per-subsystem frames (U_n, bounds), once checked
    at ``VERIFY_ATOL`` to be orthonormal (the Frobenius norm of their Gram
    matrix less the identity bounds every Gram block :func:`verify_lo` reads)
    and to span exactly each local support (the Frobenius distance of the two
    projectors), and completed, as the pipeline's frames are, by rho_n's
    out-of-support eigenvectors."""
    dims = state.dims
    if len(blocks) != state.n_subsystems:
        raise ValueError("need one block list per subsystem")
    frames = []
    for n, sub_blocks in enumerate(blocks):
        bases = []
        for b in sub_blocks:
            b = np.asarray(b, dtype=np.complex128)
            if b.ndim == 1:
                b = b[:, None]
            if b.ndim != 2 or b.shape[0] != dims[n] or b.shape[1] == 0:
                raise ValueError(f"block on subsystem {n} has wrong shape {b.shape}")
            bases.append(b)
        if not bases:
            raise ValueError(f"subsystem {n} has no blocks")
        stacked = np.hstack(bases)
        gram = stacked.conj().T @ stacked - np.eye(stacked.shape[1])
        if not float(np.linalg.norm(gram)) <= VERIFY_ATOL:  # so NaN fails too
            raise ValueError(f"blocks on subsystem {n} are not mutually orthonormal")
        spec = _local_support(state, n, t_supp)
        support = spec.support_basis
        span = np.linalg.norm(support @ support.conj().T - stacked @ stacked.conj().T)
        if not float(span) <= VERIFY_ATOL:
            raise ValueError(f"blocks on subsystem {n} do not span the local support exactly")
        frame = np.hstack([stacked, spec.eigenvectors[:, spec.support_rank:]])
        frames.append((frame, np.cumsum([0] + [b.shape[1] for b in bases])))
    return frames


def build_correlation_graph(
    state: StateTensor,
    frames,
    t_edge: float = DEFAULT_TOLERANCES.t_edge,
) -> CorrelationGraph:
    """Build the block correlation graph of a state.

    ``frames`` holds one pair (U_n, bounds) per subsystem: U_n is a complete
    d_n x d_n unitary whose columns ``bounds[k]`` to ``bounds[k + 1]`` are
    block k, the last bound being the support rank.

    The weight of the edge between block a on subsystem n and block b on
    subsystem m is the squared joint projection ||P_n^a P_m^b psi||^2.
    With orthonormal blocks this is ||(B_a^H x B_b^H) psi||^2, so every
    weight comes from one rotated vector psi' = (U_0^H x ... x U_{N-1}^H) psi:

        M_nm[x, y] = sum over the other indices of |psi'[..., x, ..., y, ...]|^2
        weight((n, a), (m, b)) = sum of M_nm[x, y] over x in a, y in b

    The other subsystems are summed over a complete basis, so the t_supp
    leak outside the supports cannot move an edge.  That is N rotations
    of psi for all edges, in place of one full-vector projection per node
    pair, and each M_nm comes from staged sums of |psi'|^2.

    Raises
    ------
    ValueError
        If a component misses a subsystem: ``t_edge`` then rejects every
        edge from some block to that subsystem.  The message names the
        largest rejected edge weight.
    """
    dims = state.dims
    nodes, offsets = [], [0]
    rotated = state.amps
    for n, (frame, cuts) in enumerate(frames):
        nodes += [GraphNode(n, frame[:, a:b]) for a, b in zip(cuts, cuts[1:])]
        offsets.append(len(nodes))
        rotated = apply_matrix_at(rotated, dims, n, frame.conj().T)
    bounds = [cuts for _, cuts in frames]
    # weights[a, b]: the edge weight of nodes a < b on distinct subsystems, else NaN;
    # nodes are numbered subsystem by subsystem, so np.nonzero lists edges in (a, b) order
    weights = np.full((len(nodes),) * 2, np.nan)
    tail = rotated.real**2 + rotated.imag**2  # summed over the subsystems before n
    for n in range(state.n_subsystems - 1):
        tail = rest = tail.reshape(dims[n], -1)
        for m in range(n + 1, state.n_subsystems):
            rest = rest.reshape(dims[n], dims[m], -1)  # summed over the subsystems n < . < m
            rows = np.add.reduceat(rest.sum(axis=2)[: bounds[n][-1]], bounds[n][:-1], axis=0)
            joint = np.add.reduceat(rows[:, : bounds[m][-1]], bounds[m][:-1], axis=1)
            weights[offsets[n]:offsets[n + 1], offsets[m]:offsets[m + 1]] = joint
            rest = rest.sum(axis=1)
        tail = tail.sum(axis=0)
    linked = weights > t_edge
    edges = [(int(a), int(b), float(weights[a, b])) for a, b in zip(*np.nonzero(linked))]
    rejected = weights[weights <= t_edge]
    groups = {}
    for a, root in enumerate(_component_roots(linked | linked.T).tolist()):
        groups.setdefault(root, []).append(a)  # in order of first nodes
    components = tuple(map(tuple, groups.values()))
    min_accepted = min((w for _, _, w in edges), default=None)
    max_rejected = float(rejected.max()) if rejected.size else None
    supports = []
    for comp in components:
        blocks = {}  # in subsystem order: each component lists its nodes in ascending order
        for i in comp:
            blocks.setdefault(nodes[i].subsystem, []).append(nodes[i].basis)
        missed = set(range(state.n_subsystems)) - blocks.keys()
        if missed:  # so some edge was rejected
            raise ValueError(
                f"t_edge {t_edge:g} leaves a correlation-graph component without subsystem "
                f"{min(missed)}: the largest rejected edge weight is {max_rejected:.6g}"
            )
        supports.append(tuple(map(np.hstack, blocks.values())))
    return CorrelationGraph(tuple(nodes), tuple(edges), components, tuple(supports),
                            min_accepted, max_rejected)


# ---------------------------------------------------------------------------
# randomized simultaneous block diagonalization inside eigenvalue clusters


def _eigenframe_slices(state: StateTensor, spectra, degenerate) -> dict:
    """Pair-state slices of each subsystem n in ``degenerate``, with psi
    rotated by V_k^H on the subsystem k of each given spectrum, V_k its
    eigenbasis.  Each rho_am of a pair that holds such an n is computed
    once.  n's slices F = rho_nm[(., a), (., b)] are stacked
    (sum_m d_m^2, d_n, d_n) over m ascending and (a, b) row-major; returns
    {n: (slices, the index where each m's group starts)}.  Read from
    amplitudes, a cluster of weight w gets a relative error of about
    eps / sqrt(w), not the eps / w of the full pair states compressed onto it.
    """
    if not degenerate:
        return {}
    dims, amps = state.dims, state.amps
    for spec in spectra:
        amps = apply_matrix_at(amps, dims, spec.subsystem, spec.eigenvectors.conj().T)
    rotated = StateTensor(dims, amps)
    groups = {n: [] for n in degenerate}
    for a, m in itertools.combinations(range(state.n_subsystems), 2):
        if a in groups or m in groups:
            rho = partial_trace(rotated, [a, m]).reshape(dims[a], dims[m], dims[a], dims[m])
            if a in groups:
                groups[a].append(rho.transpose(1, 3, 0, 2))
            if m in groups:
                groups[m].append(rho.transpose(0, 2, 1, 3))
    return {
        n: (np.concatenate([f.reshape(-1, dims[n], dims[n]) for f in group]),
            np.cumsum([0] + [f.shape[0] ** 2 for f in group[:-1]]))
        for n, group in groups.items()
    }


def _merge_coupled(frames: np.ndarray, labels: np.ndarray, layout: np.ndarray, starts, t_edge):
    """Re-merge candidate parts coupled through some other subsystem m, for
    a batch of rounds: round r's candidate c is the columns x of the
    orthonormal C = ``frames[r]`` with ``labels[r, x]`` = c.

    Parts a < b merge when ||(B_b^H x I) rho_nm (B_a x I)||_F > t_edge, whose
    square sums ||B_b^H F B_a||_F^2, a block of C^H F C, over m's group of
    slices F.  Two products over ``layout`` = (F_1 | ... | F_L) give them
    all: C^H layout, read as (s L, s), times C.  |C^H F C|^2 is summed over
    each group and over the candidates' columns, maximized over the groups
    and read off the strictly lower triangle (rho_nm is Hermitian).  The norm
    does not depend on m's local basis and bounds every single slice's cross
    block.  Returns each column's merged part, numbered by first candidate.
    """
    rounds, size = labels.shape
    cross = frames.conj().swapaxes(1, 2).reshape(-1, len(layout)) @ layout
    cross = cross.reshape(rounds, -1, len(layout)) @ frames
    power = (cross.real**2 + cross.imag**2).reshape(rounds, size, -1, size)
    power = np.add.reduceat(power, starts, axis=2).swapaxes(1, 2)
    member = (labels[:, :, None] == np.arange(size)).astype(np.float64)
    power = (member.swapaxes(1, 2)[:, None] @ power @ member[:, None]).max(axis=1)
    linked = (np.sqrt(power) > t_edge) & (np.arange(size)[:, None] > np.arange(size))
    roots = _component_roots(linked | linked.swapaxes(1, 2))
    rows = np.arange(rounds)[:, None]
    return (np.cumsum(roots == np.arange(size), axis=1) - 1)[rows, roots[rows, labels]]


def _split_cluster(family: np.ndarray, starts, tol: Tolerances, rng, subsystem: int) -> list:
    """SBD blocks of one eigenvalue cluster, in the cluster's coordinates;
    ``family`` holds the cluster's unit-trace pair slices.  The rounds still
    needed are judged in one batch on the current parts (a stable round only
    turns their bases); the first that changes the part count is kept and
    later draws wait, so each round draws what it would one at a time."""
    count, size = family.shape[:2]
    layout = family.transpose(1, 0, 2).reshape(size, -1)  # (F_1 | ... | F_L)
    parts = [np.eye(size, dtype=np.complex128)]
    drawn = np.empty((0, count), dtype=np.complex128)  # for rounds not yet judged
    stable, left, most = 0, 50 * size, max(1, _SBD_BATCH_ENTRIES // layout.size)
    while left:
        rounds = min(SBD_STABLE_ROUNDS - stable, left, most)
        fresh = rng.standard_normal(2 * count * (rounds - len(drawn))).view(np.complex128)
        drawn = np.concatenate([drawn, fresh.reshape(-1, count)])
        # X = (sum_k z_k F_k + h.c.) / 2, z_k complex normal: Tr_m[(I x H_m) rho_nm]
        # for a random Hermitian H_m on every other subsystem m
        combined = (drawn @ family.reshape(count, -1)).reshape(rounds, size, size)
        combined = (combined + combined.conj().swapaxes(1, 2)) / 2.0
        frames, firsts = [], []
        for basis in parts:
            vals, vecs = np.linalg.eigh(basis.conj().T @ combined @ basis)
            frames.append(basis @ vecs)
            firsts += [np.ones((rounds, 1), dtype=bool), vals[:, 1:] - vals[:, :-1] > SBD_SPLIT_GAP]
        frames = np.concatenate(frames, axis=2)
        labels = np.cumsum(np.concatenate(firsts, axis=1), axis=1) - 1
        # merge-back keeps the search sound: a split that any pair state
        # couples across is undone, and since cross-block norms can only
        # shrink under sub-splitting, merges never cross boundaries of the
        # previous partition -- the loop refines monotonically.
        groups = _merge_coupled(frames, labels, layout, starts, tol.t_edge)
        changed = np.flatnonzero(groups.max(axis=1) + 1 != len(parts))
        if changed.size:
            r = changed[0]
            parts = [frames[r][:, groups[r] == g] for g in range(groups[r].max() + 1)]
            drawn, stable, left = drawn[r + 1:], 0, left - r - 1
            continue
        drawn, stable, left = drawn[:0], stable + rounds, left - rounds
        if stable >= SBD_STABLE_ROUNDS:
            return parts if len(parts) == 1 else [parts[i] for i in _key_order(parts)]
    raise InternalConsistencyError(
        f"block-diagonalization failed to stabilize on subsystem {subsystem}"
    )


def _support_partitions(state: StateTensor, subsystems, tol: Tolerances) -> tuple:
    """Each given subsystem's support split cluster by cluster, as a frame
    (U_n, bounds), and the subsystems whose supports needed SBD.

    Eigenvalues are clustered at gaps of max(``t_deg``, ``_GUARD_GAP``).
    U_n is rho_n's full eigenbasis V, with a larger cluster's in-support
    columns lo:hi overwritten by V[:, lo:hi] p for its SBD parts p, so the
    out-of-support eigenvectors complete it to a unitary; ``bounds`` are the
    block offsets, ending at the rank.  With the state in
    the given eigenbases, a cluster's pair slices are a basic slice over its
    run of indices, divided by its weight, the sum of its in-support
    eigenvalues, so ``SBD_SPLIT_GAP`` and ``t_edge`` judge the SBD relative
    to the cluster.  The subsystems draw in order from one generator seeded
    with ``SBD_SEED``, built at the first cluster that needs SBD.
    """
    t_split = max(tol.t_deg, _GUARD_GAP)
    spectra = [_local_support(state, n, tol.t_supp, t_split) for n in subsystems]
    degenerate = tuple(spec.subsystem for spec in spectra if spec.is_support_degenerate)
    slices = _eigenframe_slices(state, spectra, degenerate)
    frames, rng = [], None
    for spec in spectra:
        stacked, bounds = spec.eigenvectors.copy(), [0]
        for cluster in spec.clusters:
            lo, hi = cluster[0], min(cluster[-1] + 1, spec.support_rank)
            if hi - lo == 1:
                bounds.append(hi)
            elif hi - lo > 1:
                family, starts = slices[spec.subsystem]
                family = family[:, lo:hi, lo:hi] / spec.eigenvalues[lo:hi].sum()
                rng = rng or np.random.default_rng(SBD_SEED)
                for p in _split_cluster(family, starts, tol, rng, spec.subsystem):
                    bounds.append(bounds[-1] + p.shape[1])
                    stacked[:, bounds[-2]:bounds[-1]] = spec.eigenvectors[:, lo:hi] @ p
        frames.append((stacked, bounds))
    return frames, degenerate


def sbd_refine(
    state: StateTensor,
    n: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list:
    """Finest partition of a subsystem's support that the state's pairwise
    correlations cannot distinguish further.

    The blocks refine rho_n's in-support eigenvalue clusters, cut at gaps
    above max(``tol.t_deg``, ``_GUARD_GAP``): a singleton cluster is its
    eigenvector, so a support whose local state has two well-separated
    eigenvalues comes back as at least two blocks.  A larger
    cluster of weight w is split along the eigenvalue clusters of random
    draws X = Tr_m[(I x H_m) rho_nm] / w, H_m Hermitian, restricted to it,
    cut at gaps above ``SBD_SPLIT_GAP``; parts a < b merge back whenever
    ||(B_b^H x I) rho_nm (B_a x I)||_F / w exceeds ``tol.t_edge`` for some
    m, and the search stops after ``SBD_STABLE_ROUNDS`` consecutive stable
    rounds.  Deterministic: the draws come from a generator seeded with
    ``SBD_SEED``.

    Returns
    -------
    list of numpy.ndarray
        Orthonormal bases (columns) of the partition, cluster by cluster in
        descending eigenvalue order.
    """
    if state.n_subsystems == 2:
        raise UnsupportedOperationError("pair-state refinement needs at least three subsystems")
    ((stacked, bounds),) = _support_partitions(state, [n], tol)[0]
    return [stacked[:, a:b] for a, b in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# assembly of branches from block partitions


def branches_from_supports(state: StateTensor, supports) -> list:
    """Branch i from its per-subsystem supports ``supports[i]``: weight
    w_i = ||P_0^i psi||^2 and vector P_0^i psi / sqrt(w_i), every P_0^i psi
    from one :func:`project_supports` product.  None stands in for a branch
    with w_i <= W_MIN, which the state does not hold."""
    if not supports:
        return []
    vectors = project_supports(state.amps, state.dims, 0, basis_stack([s[0] for s in supports]))
    branches = []
    for vec, sup in zip(vectors.reshape(len(supports), -1), supports):
        weight = float(np.vdot(vec, vec).real)
        branches.append(Branch(weight, vec / math.sqrt(weight), sup) if weight > W_MIN else None)
    return branches


def _judged(d: BranchDecomposition, what: str) -> VerificationReport:
    """The :func:`verify_lo` report of ``d``, or InternalConsistencyError
    naming ``what`` with the report's summary if any check fails."""
    report = verify_lo(d)
    if not report.passed:
        raise InternalConsistencyError(f"{what} failed verification:\n" + report.summary(),
                                       report=report)
    return report


def _decomposition_from_supports(state: StateTensor, supports) -> tuple:
    """The decomposition of the :func:`branches_from_supports` branches of
    ``supports``, those at or below W_MIN dropped; canonically ordered, with
    its :func:`verify_lo` report.  No unverified decomposition is returned:
    see :func:`_judged`."""
    branches = [br for br in branches_from_supports(state, supports) if br is not None]
    dec = BranchDecomposition.from_branches(state, branches)
    return dec, _judged(dec, "constructed decomposition")


def assemble_branches(
    state: StateTensor,
    partitions,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> BranchDecomposition:
    """Assemble a decomposition from per-subsystem support partitions.

    Builds the block correlation graph and turns its connected components
    into branches.  The branches are exactly as fine as the partitions:
    nothing is refined further.  ``partitions`` holds, for each subsystem, a
    list of orthonormal bases that are mutually orthogonal and jointly span
    exactly the local support of the reduced state, at ``VERIFY_ATOL`` as
    :func:`verify_lo` judges them; ValueError otherwise.
    As :func:`maximal_decomposition`, it raises InternalConsistencyError
    unless :func:`verify_lo` passes the result.
    """
    if state.n_subsystems == 2:
        raise UnsupportedOperationError("block assembly needs at least three subsystems")
    frames = _checked_frames(state, partitions, tol.t_supp)
    graph = build_correlation_graph(state, frames, tol.t_edge)
    return _decomposition_from_supports(state, graph.supports)[0]


# ---------------------------------------------------------------------------
# the maximal decomposition


def _schmidt_supports(state: StateTensor, tol: Tolerances) -> tuple:
    """Per-branch supports of a two-subsystem state, one branch per squared
    singular value of its d_0 x d_1 amplitude matrix above ``t_supp``, and
    whether two of those weights lie within ``t_deg`` (a non-unique choice).

    Left-vector phases are fixed by :func:`spectral.fix_phases`; the right
    vectors carry the phase.  ValueError if no weight is above ``t_supp``.
    """
    u, s, vh = np.linalg.svd(state.as_array(), full_matrices=False)
    keep = s**2 > tol.t_supp
    if not keep.any():  # s[0] exists: every dimension is at least 1
        raise ValueError(
            f"t_supp {tol.t_supp:g} leaves subsystems [0] and [1] no support: "
            f"the largest squared Schmidt coefficient is {s[0] ** 2:.6g}"
        )
    s, left, right = s[keep], u[:, keep], vh[keep, :].T
    fixed = fix_phases(left)
    right = right * np.einsum("ik,ik->k", fixed.conj(), left)
    supports = [(fixed[:, [k]], right[:, [k]]) for k in range(s.size)]
    return supports, bool(np.any(-np.diff(s**2) <= tol.t_deg))


@dataclass(frozen=True)
class Diagnostics:
    """How a maximal decomposition was obtained, and how cleanly.

    ``n_independence_residual`` is the ``projector_identity`` residual of
    :func:`verify_lo`: the largest ||P_n^i psi - sqrt(w_i) v_i|| over n, i.
    """

    path: str
    seed: int | None
    tolerances: Tolerances
    n_independence_residual: float
    min_accepted_edge: float | None
    max_rejected_edge: float | None
    degenerate_subsystems: tuple
    non_unique: bool


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    decomposition: BranchDecomposition
    diagnostics: Diagnostics
    verification: VerificationReport


def maximal_decomposition(
    state: StateTensor,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> DecompositionResult:
    """Compute the finest locally orthogonal decomposition of a state.

    For two subsystems this is a Schmidt decomposition (one branch per
    retained singular value); two squared coefficients within ``t_deg``
    make the choice non-unique, which is flagged in the diagnostics rather
    than resolved.
    For three or more subsystems the decomposition is unique and built as
    the module docstring describes; the diagnostics' path reads "block-sbd"
    when some eigenvalue cluster has several members, also when its gaps are
    above ``t_deg`` but below the guard gap, else "eigenvector-graph".

    Raises
    ------
    ValueError
        For a ``t_supp`` that leaves a subsystem no support.
    InternalConsistencyError
        If the constructed decomposition fails verification, which
        indicates a tolerance breakdown; a bad decomposition is never
        returned silently.
    """
    if state.n_subsystems == 2:
        supports, non_unique = _schmidt_supports(state, tol)
        graph, path, seed, degenerate = None, "schmidt", None, (0, 1) if non_unique else ()
    else:
        frames, degenerate = _support_partitions(state, range(state.n_subsystems), tol)
        graph = build_correlation_graph(state, frames, tol.t_edge)
        supports = graph.supports
        path = "block-sbd" if degenerate else "eigenvector-graph"
        seed, non_unique = SBD_SEED, False
    dec, report = _decomposition_from_supports(state, supports)
    checks = {c.name: c.residual for c in report.checks}
    diagnostics = Diagnostics(
        path=path,
        seed=seed,
        tolerances=tol,
        n_independence_residual=checks["projector_identity"],
        min_accepted_edge=graph.min_accepted_edge if graph else None,
        max_rejected_edge=graph.max_rejected_edge if graph else None,
        degenerate_subsystems=degenerate,
        non_unique=non_unique,
    )
    return DecompositionResult(dec, diagnostics, report)
