"""Shared helpers for the test suite."""

import itertools
import math
import sys
from pathlib import Path

import numpy as np

from lodecomp import decomposition
from lodecomp.decomposition import _decomposition_from_supports, _judged, _local_support
from lodecomp.errors import InternalConsistencyError
from lodecomp.spectral import cluster_eigenvalues
from lodecomp.tensor import StateTensor, apply_matrix_at, partial_trace, project_supports
from lodecomp.tolerances import DEFAULT_TOLERANCES

PROJ_ATOL = 1e-8

# the benchmark's state builders and tracer, importable as ``states`` and ``tracer``
BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))


# the decomposition algebra and the invariance transforms the paper's proofs
# reason with, built as the pipeline builds and judges its decompositions;
# they take valid arguments and check none but coarse_grain's partition


def _supports_of(vec, dims, t_supp):
    """Per-subsystem support bases of a vector's reduced states, once normalized."""
    state = StateTensor(dims, vec)
    return tuple(_local_support(state, n, t_supp).support_basis for n in range(len(dims)))


def trivial_decomposition(state, tol=DEFAULT_TOLERANCES):
    """The one-branch decomposition onto the state's full supports."""
    supports = _supports_of(state.amps, state.dims, tol.t_supp)
    return _decomposition_from_supports(state, [supports])[0]


def coarse_grain(d, merge):
    """One branch per class of the partition ``merge`` of d's branch
    indices, on the direct sums of its members' supports.  ``merge`` must
    cover the indices: the `oracle` digest of ``tools/report_digest.py``
    hashes this refusal of [[0, 1]] on one-branch states."""
    if sorted(i for cls in merge for i in cls) != list(range(d.n_branches)):
        raise ValueError("merge must be a partition of the branch indices")
    supports = [tuple(map(np.hstack, zip(*(d.branches[i].supports for i in sorted(cls)))))
                for cls in merge]
    return _decomposition_from_supports(d.state, supports)[0]


def common_fine_graining(d1, d2, tol=DEFAULT_TOLERANCES):
    """The joint refinement of two judged decompositions of one state: the
    supports of every nonzero (P_0^i x ... x P_{N-1}^i) sqrt(w_k) v_k, i
    over d1's branches and k over d2's."""
    for d in (d1, d2):
        _judged(d, "input decomposition")
    dims, supports = d1.state.dims, []
    for bk, bi in itertools.product(d2.branches, d1.branches):
        vec = math.sqrt(bk.weight) * bk.vector
        for n, basis in enumerate(bi.supports):
            vec = project_supports(vec, dims, n, basis[None]).reshape(-1)
        if float(np.vdot(vec, vec).real) > decomposition.W_MIN:
            supports.append(_supports_of(vec, dims, tol.t_supp))
    return _decomposition_from_supports(d1.state, supports)[0]


def apply_local_unitary(state, n, mat):
    mat = np.asarray(mat, complex)
    return StateTensor(state.dims, apply_matrix_at(state.amps, state.dims, n, mat))


def apply_pairwise_unitary(state, n, m, mat):
    """``mat`` on the (n, m) pair, indexed |x_n, x_m> with n slowest, whether or not n < m."""
    pair_first = np.moveaxis(state.as_array(), (n, m), (0, 1))
    out = (np.asarray(mat, complex) @ pair_first.reshape(len(mat), -1)).reshape(pair_first.shape)
    return StateTensor(state.dims, np.moveaxis(out, (0, 1), (n, m)).reshape(-1))


def level_mixing_unitary(d_n, d_m, a, b):
    """Sends |a,a> and |b,b> to their even and odd mixtures, fixing every
    other product basis state."""
    mat, pair, h = np.eye(d_n * d_m, dtype=complex), [a * d_m + a, b * d_m + b], 1 / math.sqrt(2)
    mat[np.ix_(pair, pair)] = [[h, h], [h, -h]]
    return mat


def tensor_compose(a, b):
    return StateTensor(a.dims + b.dims, np.kron(a.amps, b.amps))


def permute_subsystems(state, perm):
    """New position k holds old subsystem ``perm[k]``."""
    arr = state.as_array().transpose(perm)
    return StateTensor(tuple(state.dims[p] for p in perm), arr.reshape(-1))


class UnionFind:
    """Disjoint sets over range(size), each rooted at its smallest member."""

    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, a):
        while self.parent[a] != a:
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        self.parent[max(ra, rb)] = min(ra, rb)

    def groups(self):
        """The sets as index tuples, in order of their smallest members."""
        byroot = {}
        for a in range(len(self.parent)):
            byroot.setdefault(self.find(a), []).append(a)
        return [tuple(byroot[r]) for r in sorted(byroot)]


def reference_projector_key(basis):
    """The subspace key as a tuple, rounded one projector entry at a time:
    the key that ``decomposition._key_order`` batched, kept as its reference.
    A stable sort by it is that order."""
    proj = basis @ basis.conj().T
    return tuple((-round(float(x.real), 10), -round(float(x.imag), 10)) for x in proj.reshape(-1))


def support_projectors(branch):
    return [b @ b.conj().T for b in branch.supports]


def assert_same_decomposition(d1, d2, atol=1e-9):
    """Branch-by-branch equality: weights, support subspaces, vectors."""
    assert d1.n_branches == d2.n_branches, (d1.n_branches, d2.n_branches)
    used = set()
    for b1 in d1.branches:
        p1 = support_projectors(b1)
        for j, b2 in enumerate(d2.branches):
            if j in used or abs(b1.weight - b2.weight) > atol:
                continue
            p2 = support_projectors(b2)
            if all(np.max(np.abs(p - q)) <= PROJ_ATOL for p, q in zip(p1, p2)):
                # vectors must agree up to a global phase
                assert abs(np.vdot(b1.vector, b2.vector)) > 1 - PROJ_ATOL
                used.add(j)
                break
        else:
            raise AssertionError(f"no partner for branch with weight {b1.weight}")


def is_coarse_graining_of(coarse, fine):
    """Every fine branch's supports lie inside exactly one coarse branch's."""
    for bf in fine.branches:
        hits = 0
        for bc in coarse.branches:
            inside = all(
                np.linalg.norm(bf.supports[n] - p @ bf.supports[n]) <= PROJ_ATOL
                for n, p in enumerate(support_projectors(bc))
            )
            hits += bool(inside)
        if hits != 1:
            return False
    return True


def random_weights(rng, k):
    raw = rng.random(k) + 0.05
    return tuple(float(w) for w in raw / raw.sum())


def random_partition(rng, k, n_classes=2):
    """Random partition of range(k) into at most n_classes nonempty classes."""
    labels = rng.integers(0, n_classes, size=k)
    if len(set(labels.tolist())) == 1 and k > 1:
        labels[0] = (labels[0] + 1) % n_classes
    classes = {}
    for i, label in enumerate(labels.tolist()):
        classes.setdefault(int(label), []).append(i)
    return list(classes.values())


def reference_projector_identity(d):
    """Largest residual of P_n^i P_m^j psi = delta_ij sqrt(w_i) v_i over all
    subsystem and branch pairs.

    This is the N^2 k^2 full-vector loop that ``verify_lo``'s
    per-(subsystem, branch) check replaced, kept as its reference.
    """
    dims = d.state.dims
    n_sub = len(dims)

    def project(vec, n, basis):
        return apply_matrix_at(vec, dims, n, basis @ basis.conj().T)

    projected = {
        (m, j): project(d.state.amps, m, br.supports[m])
        for m in range(n_sub)
        for j, br in enumerate(d.branches)
    }
    worst = 0.0
    for n in range(n_sub):
        for m in range(n_sub):
            for i, bi in enumerate(d.branches):
                for j in range(d.n_branches):
                    out = project(projected[(m, j)], n, bi.supports[n])
                    if i == j:
                        out = out - np.sqrt(bi.weight) * bi.vector
                    worst = max(worst, float(np.linalg.norm(out)))
    return worst


def reference_correlation_family(state, n, support):
    """The correlation family SBD once merged over, one member at a time.

    The local density operator, then for every other subsystem m and every
    local basis pair a <= b the Hermitian and anti-Hermitian parts of
    ``rho_nm[(., a), (., b)]``, each compressed onto ``support`` and kept
    when its Frobenius norm exceeds 1e-14.  SBD now merges on the pair-state
    norm over m's slices, which bounds every member's cross block on an
    eigenvalue cluster; with ``reference_merge_coupled`` this is the finer
    merge that the pair-state merge must coarsen.
    """
    dims = state.dims
    d_n = dims[n]
    members = [support.conj().T @ partial_trace(state, [n]) @ support]
    for m in range(state.n_subsystems):
        if m == n:
            continue
        d_m = dims[m]
        rho_pair = partial_trace(state, [n, m])
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


def reference_merge_groups(parts, family, t_edge):
    """The part groups of ``reference_merge_coupled``, as index tuples."""
    uf = UnionFind(len(parts))
    for fam in family:
        for a in range(len(parts)):
            fa = fam @ parts[a]
            for b in range(a + 1, len(parts)):
                cross = parts[b].conj().T @ fa
                if float(np.linalg.norm(cross)) > t_edge:
                    uf.union(a, b)
    return uf.groups()


def reference_merge_coupled(parts, family, t_edge):
    """The per-member merge test, one member and one part pair at a time.

    Parts a < b merge when some member F has ||B_b^H F B_a||_F > t_edge.
    This is the triple loop that the batched contraction in
    ``decomposition._merge_coupled`` replaced: with one member per group,
    the pair-state merge must give exactly these groups.
    """
    groups = reference_merge_groups(parts, family, t_edge)
    return [np.hstack([parts[i] for i in grp]) for grp in groups]


def reference_round_merge(parts, layout, starts, t_edge):
    """The merge test of one SBD round, from the part list and two products.

    Parts a < b merge when ||B_b^H F B_a||_F^2, summed over the slices of
    one of the groups that ``starts`` opens in ``layout`` = (F_1 | ... | F_L),
    exceeds t_edge^2 for some group.  This is the one-round merge that
    ``decomposition._merge_coupled`` batched over rounds.
    """
    stacked = np.hstack(parts)
    bounds = [0] + list(np.cumsum([p.shape[1] for p in parts[:-1]]))
    cross = (stacked.conj().T @ layout).reshape(-1, len(layout)) @ stacked
    power = (cross.real**2 + cross.imag**2).reshape(len(cross.T), -1, len(cross.T))
    power = np.add.reduceat(power, starts, axis=1)
    power = np.add.reduceat(np.add.reduceat(power, bounds, axis=0), bounds, axis=2)
    coupled = np.tril(np.sqrt(power.max(axis=1)) > t_edge, -1)
    uf = UnionFind(len(parts))
    for b, a in zip(*np.nonzero(coupled)):
        uf.union(int(a), int(b))
    return [np.hstack([parts[i] for i in grp]) for grp in uf.groups()]


def reference_split_cluster(family, starts, tol, rng, subsystem):
    """SBD of one eigenvalue cluster one round at a time: the loop that
    ``decomposition._split_cluster`` batched.  Each round draws one X, splits
    every part at its eigenvalue gaps above ``decomposition.SBD_SPLIT_GAP``
    on the previous round's bases and
    merges back with ``reference_round_merge``; the search stops after
    ``decomposition.SBD_STABLE_ROUNDS`` consecutive rounds without a change in
    the part count, or raises after 50 rounds per dimension.  The constant is
    read at call time, so one monkeypatch steers this loop and the batched one.
    """
    count, size = family.shape[:2]
    layout = family.transpose(1, 0, 2).reshape(size, -1)
    parts = [np.eye(size, dtype=np.complex128)]
    stable = 0
    for _ in range(50 * size):
        coeffs = rng.standard_normal(2 * count).view(np.complex128)
        combined = (coeffs @ family.reshape(count, -1)).reshape(size, size)
        combined = (combined + combined.conj().T) / 2.0
        candidates = []
        for basis in parts:
            vals, vecs = np.linalg.eigh(basis.conj().T @ combined @ basis)
            clusters = cluster_eigenvalues(-vals, decomposition.SBD_SPLIT_GAP)
            candidates += [basis @ vecs[:, c] for c in clusters]
        count_before = len(parts)
        parts = reference_round_merge(candidates, layout, starts, tol.t_edge)
        stable = stable + 1 if len(parts) == count_before else 0
        if stable >= decomposition.SBD_STABLE_ROUNDS:
            return parts if len(parts) == 1 else sorted(parts, key=reference_projector_key)
    raise InternalConsistencyError(
        f"block-diagonalization failed to stabilize on subsystem {subsystem}"
    )


def reference_pair_states(state, n=None):
    """Two-subsystem reduced states, keyed (a, m) with a < m and reshaped to
    (d_a, d_m, d_a, d_m): every pair, or only the pairs that hold ``n``.

    With :func:`reference_eigenframe_pair_states` and
    :func:`reference_pair_slices`, this is how the pair-state slices were
    built before ``decomposition._eigenframe_slices`` folded the three into
    one pass, kept as its reference.
    """
    dims = state.dims
    return {
        (a, m): partial_trace(state, [a, m]).reshape(dims[a], dims[m], dims[a], dims[m])
        for a in range(state.n_subsystems)
        for m in range(a + 1, state.n_subsystems)
        if n is None or n in (a, m)
    }


def reference_eigenframe_pair_states(state, spectra, n=None):
    """:func:`reference_pair_states` of psi rotated by V_k^H on the
    subsystem k of each given spectrum, V_k its eigenbasis."""
    amps = state.amps
    for spec in spectra:
        amps = apply_matrix_at(amps, state.dims, spec.subsystem, spec.eigenvectors.conj().T)
    return reference_pair_states(StateTensor(state.dims, amps), n)


def reference_pair_slices(n, pairs):
    """The slices F = rho_nm[(., a), (., b)] of subsystem n's pair states in
    ``pairs``, stacked (sum_m d_m^2, d_n, d_n) over m ascending and (a, b)
    row-major, and the index where each m's group starts."""
    slices = [
        rho4.transpose(1, 3, 0, 2) if n == a else rho4.transpose(0, 2, 1, 3)
        for (a, m), rho4 in sorted(pairs.items())
        if n in (a, m)
    ]
    starts = np.cumsum([0] + [s.shape[0] ** 2 for s in slices[:-1]])
    return np.concatenate([s.reshape(-1, *s.shape[2:]) for s in slices]), starts


def reference_branch_sort_key(branch):
    """The canonical branch order's full key, computed for every branch.

    ``BranchDecomposition.from_branches`` computes the projector part only
    within runs of equal rounded weight; a stable sort on this key is its
    reference.
    """
    return (-round(branch.weight, 12), reference_projector_key(branch.supports[0]))


def reference_component_projections(state, graph):
    """Per component c of ``graph``: the full-vector projections P_n^c psi
    of the state, one per subsystem n, P_n^c onto c's blocks on n."""
    dims = state.dims
    out = []
    for comp in graph.components:
        vectors = []
        for n in range(len(dims)):
            basis = np.hstack([graph.nodes[i].basis for i in comp if graph.nodes[i].subsystem == n])
            vectors.append(apply_matrix_at(state.amps, dims, n, basis @ basis.conj().T))
        out.append(vectors)
    return out


def reference_component_residuals(state, graph):
    """Per component of ``graph``: the largest ||P_a^c psi - P_b^c psi|| over
    subsystem pairs, from :func:`reference_component_projections`.

    Assembly once raised when this pairwise residual exceeded ``T_NINDEP``;
    ``verify_lo``'s projector identity now judges it, and every partition
    that passes must still keep this residual within ``T_NINDEP``.
    """
    return np.array([
        max(float(np.linalg.norm(a - b)) for a, b in itertools.combinations(vectors, 2))
        for vectors in reference_component_projections(state, graph)
    ])


def reference_compress_vector(vec, dims, bases):
    """(B_0^H x ... x B_{N-1}^H) vec, one subsystem at a time: a branch
    vector restricted to its own support bases, whose maximal decomposition
    must be that one branch.
    """
    arr = vec.reshape(dims)
    for basis in bases:
        arr = np.tensordot(arr, basis.conj(), axes=([0], [0]))
    return arr.reshape(-1)
