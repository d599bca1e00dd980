"""Shared helpers for the test suite."""

import sys
from pathlib import Path

import numpy as np

from lodecomp.decomposition import _projector_key, _UnionFind
from lodecomp.tensor import apply_matrix_at, partial_trace

PROJ_ATOL = 1e-8

# the benchmark's state builders and tracer, importable as ``states`` and ``tracer``
BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))


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
    members = [support.conj().T @ partial_trace(state, [n]).matrix @ support]
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


def reference_merge_coupled(parts, family, t_edge):
    """The per-member merge test, one member and one part pair at a time.

    Parts a < b merge when some member F has ||B_b^H F B_a||_F > t_edge.
    This is the triple loop that the batched contraction in
    ``decomposition._merge_coupled`` replaced: with one member per group,
    the pair-state merge must give exactly these groups.
    """
    uf = _UnionFind(len(parts))
    for fam in family:
        for a in range(len(parts)):
            fa = fam @ parts[a]
            for b in range(a + 1, len(parts)):
                cross = parts[b].conj().T @ fa
                if float(np.linalg.norm(cross)) > t_edge:
                    uf.union(a, b)
    return [np.hstack([parts[i] for i in grp]) for grp in uf.groups()]


def reference_branch_sort_key(branch):
    """The canonical branch order's full key, computed for every branch.

    ``BranchDecomposition.from_branches`` computes the projector part only
    within runs of equal rounded weight; a stable sort on this key is its
    reference.
    """
    return (-round(branch.weight, 12), _projector_key(branch.supports[0]))


def reference_component_residuals(state, graph):
    """Per component of ``graph``: the largest ||P_a^c psi - P_b^c psi|| over
    subsystem pairs, from one full-vector projection per subsystem.

    This is the projection loop that the rotated-frame residual in
    ``decomposition._n_independence_residuals`` replaced, kept as its
    reference.
    """
    dims = state.dims
    out = []
    for comp in graph.components:
        vectors = []
        for n in range(len(dims)):
            basis = np.hstack([graph.nodes[i].basis for i in comp if graph.nodes[i].subsystem == n])
            vectors.append(apply_matrix_at(state.amps, dims, n, basis @ basis.conj().T))
        out.append(max(
            float(np.linalg.norm(vectors[a] - vectors[b]))
            for a in range(len(dims))
            for b in range(a + 1, len(dims))
        ))
    return np.array(out)


def reference_compress_vector(vec, dims, bases):
    """(B_0^H x ... x B_{N-1}^H) vec, one subsystem at a time: a branch
    vector restricted to its own support bases, whose maximal decomposition
    must be that one branch.
    """
    arr = vec.reshape(dims)
    for basis in bases:
        arr = np.tensordot(arr, basis.conj(), axes=([0], [0]))
    return arr.reshape(-1)
