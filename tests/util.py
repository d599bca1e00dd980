"""Shared helpers for the test suite."""

import numpy as np

from lodecomp.tensor import apply_matrix_at

PROJ_ATOL = 1e-8


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
