import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodecomp.catalog import (
    dress_state,
    ghz_state,
    haar_unitary,
    product_state,
    random_state,
    u_state,
    v_state,
    w_state,
    x_state,
    z_state,
)
from lodecomp import cli, decomposition
from lodecomp.decomposition import (
    T_NINDEP,
    VERIFY_ATOL,
    W_MIN,
    _GUARD_GAP,
    _checked_frames,
    _component_roots,
    _eigenframe_slices,
    _key_order,
    _merge_coupled,
    _split_cluster,
    _support_partitions,
    Branch,
    BranchDecomposition,
    assemble_branches,
    build_correlation_graph,
    maximal_decomposition,
    sbd_refine,
    verify_lo,
)
from lodecomp.errors import InternalConsistencyError, UnsupportedOperationError
from lodecomp.fileio import StateFile
from lodecomp.oracle import oracle_verify_maximality_small
from lodecomp.spectral import local_spectrum
from lodecomp.tensor import StateTensor, apply_matrix_at, partial_trace
from lodecomp.tolerances import DEFAULT_TOLERANCES, Tolerances

from util import (
    assert_same_decomposition,
    coarse_grain,
    common_fine_graining,
    is_coarse_graining_of,
    reference_branch_sort_key,
    reference_component_projections,
    reference_component_residuals,
    reference_compress_vector,
    reference_correlation_family,
    reference_merge_coupled,
    reference_eigenframe_pair_states,
    reference_merge_groups,
    reference_pair_slices,
    reference_projector_identity,
    reference_projector_key,
    reference_split_cluster,
    support_projectors,
    trivial_decomposition,
    UnionFind,
)

import states as bench_states  # noqa: E402  (bench/, put on the path by util)
import util  # noqa: E402


def computational_blocks(dim):
    return [np.eye(dim)[:, [k]] for k in range(dim)]


def spectral_blocks(state):
    """Each subsystem's in-support eigenvector columns of rho_n, one block each."""
    bases = (local_spectrum(state, n).support_basis for n in range(state.n_subsystems))
    return [[basis[:, [k]] for k in range(basis.shape[1])] for basis in bases]


def caller_graph(state, blocks):
    """The correlation graph of caller blocks, completed by the one block check."""
    return build_correlation_graph(state, _checked_frames(state, blocks, DEFAULT_TOLERANCES.t_supp))


def nested_state():
    """Two shifted three-qubit single-excitation states, weights 0.6 and 0.4, on 4x4x4."""
    dims = (4, 4, 4)
    amps = np.zeros(dims, dtype=complex)
    for k in range(3):
        multi = [0, 0, 0]
        multi[k] = 1
        amps[tuple(multi)] = np.sqrt(0.6 / 3)
    for k in range(3):
        multi = [2, 2, 2]
        multi[k] = 3
        amps[tuple(multi)] = np.sqrt(0.4 / 3)
    return StateTensor(dims, amps.reshape(-1))


def light_branch_state(eps, dressing):
    """sqrt(1 - eps)|000> + sqrt(eps / 2)(|111> + |222>) on 3x3x3, and the
    local unitaries that dress it (identities when ``dressing`` is None)."""
    amps = np.zeros((3, 3, 3), dtype=np.complex128)
    amps[0, 0, 0] = np.sqrt(1 - eps)
    amps[1, 1, 1] = amps[2, 2, 2] = np.sqrt(eps / 2)
    state = StateTensor((3, 3, 3), amps.reshape(-1))
    if dressing is None:
        return state, [np.eye(3)] * 3
    rng = np.random.default_rng(dressing)  # the draws dress_state makes
    return dress_state(state, seed=dressing), [haar_unitary(3, rng) for _ in range(3)]


def light_rings_state(eps, ring_weights, dressing):
    """sqrt(1 - eps)|000> beside one x-state ring of weight w eps per entry
    of ``ring_weights``, in levels 1-4, 5-8, ... of 1 + 4k levels per
    party; dressed by ``dress_state`` unless ``dressing`` is None."""
    d = 1 + 4 * len(ring_weights)
    amps = np.zeros((d, d, d), dtype=np.complex128)
    amps[0, 0, 0] = np.sqrt(1 - eps)
    for k, w in enumerate(ring_weights):
        levels = slice(1 + 4 * k, 5 + 4 * k)
        amps[levels, levels, levels] = np.sqrt(w * eps) * x_state().amps.reshape(4, 4, 4)
    state = StateTensor((d, d, d), amps.reshape(-1))
    return state if dressing is None else dress_state(state, seed=dressing)


@st.composite
def subspace_stacks(draw):
    """Bases of subspaces of one space of dimension d <= 8: random ranks,
    repeats of an earlier basis, rotated bases of an earlier subspace,
    earlier subspaces turned by 1e-13 to 1e-7 (on either side of the
    key's rounding), and subspaces whose projectors hold exact 0, 1 and
    1/2 entries."""
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["random", "repeat", "rotated", "turned", "axes", "half"]))
        if kind in ("repeat", "rotated", "turned") and bases:
            basis = bases[draw(st.integers(0, len(bases) - 1))]
            if kind == "rotated":
                basis = basis @ haar_unitary(basis.shape[1], rng)
            elif kind == "turned":
                angle = draw(st.sampled_from([1e-7, 1e-9, 1e-11, 1e-13]))
                basis = np.linalg.qr(basis + angle * rng.standard_normal(basis.shape))[0]
        elif kind == "axes":
            axes = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True))
            basis = np.eye(d, dtype=np.complex128)[:, axes]
        elif kind == "half" and d >= 2:
            a, b = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
            basis = np.zeros((d, 1), dtype=np.complex128)
            basis[[a, b], 0] = 0.5 + 0.5j, 0.5 - 0.5j  # |entry|^2 = 1/2 exactly
            basis *= draw(st.sampled_from([1, -1, 1j, -1j]))
        else:
            basis = haar_unitary(d, rng)[:, : draw(st.integers(1, d))]
        bases.append(basis)
    return bases


class TestMaximalGolden:
    def test_ghz_two_branches(self):
        result = maximal_decomposition(ghz_state())
        assert result.decomposition.n_branches == 2
        assert np.allclose(result.decomposition.weights, [0.5, 0.5])
        assert result.diagnostics.path == "block-sbd"

    def test_w_single_branch(self):
        result = maximal_decomposition(w_state())
        assert result.decomposition.n_branches == 1
        assert result.diagnostics.path == "eigenvector-graph"

    def test_counterexamples_single_branch(self):
        for state in (u_state(), v_state(), x_state()):
            assert maximal_decomposition(state).decomposition.n_branches == 1

    def test_z_distinct_weights(self):
        result = maximal_decomposition(z_state((0.5, 0.3, 0.2)))
        assert result.decomposition.n_branches == 3
        assert np.allclose(result.decomposition.weights, [0.5, 0.3, 0.2])
        assert result.diagnostics.path == "eigenvector-graph"

    def test_higher_dim_ghz(self):
        result = maximal_decomposition(ghz_state(4, 3))
        assert result.decomposition.n_branches == 3

    def test_product_single_branch(self):
        result = maximal_decomposition(product_state((2, 3, 2), split=2, seed=1))
        assert result.decomposition.n_branches == 1

    def test_nested_branches_with_entangled_interiors(self):
        # two shifted three-qubit single-excitation states: the decomposition
        # must stop at the two branches even though their supports are 2-dim
        result = maximal_decomposition(nested_state())
        assert result.decomposition.n_branches == 2
        assert np.allclose(result.decomposition.weights, [0.6, 0.4], atol=1e-9)
        assert all(b.support_ranks == (2, 2, 2) for b in result.decomposition.branches)


class TestBranch:
    def test_copies_read_only_arrays(self):
        vector = np.array([[0.6], [0.8j]])
        column, empty = np.array([1, 0]), np.zeros((2, 0))
        branch = Branch(np.float32(0.5), vector, [column, empty])
        vector[0, 0] = column[0] = 7
        assert type(branch.weight) is float and branch.weight == 0.5
        assert np.array_equal(branch.vector, [0.6, 0.8j]) and branch.vector.dtype == np.complex128
        assert [b.shape for b in branch.supports] == [(2, 1), (2, 0)]
        assert np.array_equal(branch.supports[0], [[1], [0]]) and branch.support_ranks == (1, 0)
        for array in (branch.vector, *branch.supports):
            assert not array.flags.writeable and array.dtype == np.complex128

    def test_rejects_unnormalized_vector(self):
        with pytest.raises(ValueError, match="branch vector must be normalized, got norm 2.0"):
            Branch(1.0, [2.0, 0.0], [np.eye(2)])

    def test_rejects_non_finite_vector(self):
        # NaN fails every comparison: the norm guard must be one NaN cannot pass
        with pytest.raises(ValueError, match="branch vector must be normalized, got norm nan"):
            Branch(1.0, [np.nan] + [0] * 7, [np.eye(2)] * 3)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match=f"branch weight must be finite, got {weight}"):
            Branch(weight, [1.0, 0.0], [np.eye(2)])


class TestBranchDecompositionShapes:
    @pytest.mark.parametrize("branch, message", [
        (Branch(1.0, [1.0, 0.0], [np.eye(2)] * 3), "branch vector length does not match the state"),
        (Branch(1.0, np.eye(8)[0], [np.eye(2)] * 2), "branch must carry one support basis per subsystem"),
        (Branch(1.0, np.eye(8)[0], [np.eye(2), np.eye(3), np.eye(2)]),
         "support basis on subsystem 1 has dimension 3, expected 2"),
    ], ids=["vector_length", "support_count", "support_dimension"])
    def test_rejects_a_branch_that_does_not_fit_the_state(self, branch, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            BranchDecomposition(ghz_state(), [branch])

    def test_rejects_no_branches(self):
        with pytest.raises(ValueError, match="a decomposition needs at least one branch"):
            BranchDecomposition(ghz_state(), [])


class TestCanonicalOrder:
    def test_weights_descending(self):
        result = maximal_decomposition(z_state((0.2, 0.5, 0.3)))
        assert np.all(np.diff(result.decomposition.weights) <= 0)

    def test_equal_weight_tie_break_deterministic(self):
        d = maximal_decomposition(ghz_state()).decomposition
        first = d.branches[0].supports[0]
        proj = first @ first.conj().T
        assert np.allclose(proj, np.diag([1.0, 0.0]), atol=1e-10)

    def test_from_branches_sorts(self):
        d = maximal_decomposition(z_state((0.5, 0.3, 0.2))).decomposition
        shuffled = BranchDecomposition.from_branches(d.state, d.branches[::-1])
        assert np.allclose(shuffled.weights, d.weights)

    def test_lazy_tie_order_matches_full_key(self):
        # the projector key is computed only inside runs of equal rounded
        # weight; the order, stability included, must be the full key's
        rng = np.random.default_rng(0)
        ghz4 = maximal_decomposition(ghz_state(3, 4)).decomposition
        dressed = maximal_decomposition(dress_state(ghz_state(3, 4), seed=1)).decomposition
        z = maximal_decomposition(z_state((0.4, 0.3, 0.3))).decomposition
        u, x = (maximal_decomposition(s).decomposition for s in (u_state(), x_state()))
        cases = [
            (ghz4.state, list(ghz4.branches)),
            (dressed.state, list(dressed.branches)),
            (z.state, list(z.branches)),
            (u.state, list(u.branches)),
            (x.state, list(x.branches)),
            # equal full keys, where only stability decides the order
            (ghz4.state, list(ghz4.branches) * 2 + [ghz4.branches[0]]),
            # weights 1e-14 apart round equal, so the projector key decides
            (ghz4.state, [
                Branch(b.weight + 1e-14 * i, b.vector, b.supports)
                for i, b in enumerate(dressed.branches)
            ]),
        ]
        for state, branches in cases:
            for _ in range(8):
                shuffled = [branches[i] for i in rng.permutation(len(branches))]
                got = BranchDecomposition.from_branches(state, shuffled).branches
                want = sorted(shuffled, key=reference_branch_sort_key)
                assert [id(b) for b in got] == [id(b) for b in want]

    def test_no_key_when_rounded_weights_differ(self, monkeypatch):
        def no_key(bases):
            raise AssertionError("a projector key was computed")

        z = maximal_decomposition(z_state((0.4, 0.35, 0.25))).decomposition
        monkeypatch.setattr(decomposition, "_key_order", no_key)
        got = BranchDecomposition.from_branches(z.state, z.branches[::-1]).branches
        assert [id(b) for b in got] == [id(b) for b in z.branches]

    @settings(max_examples=150, deadline=None)
    @given(subspace_stacks())
    def test_key_order_is_the_stable_reference_sort(self, bases):
        want = sorted(range(len(bases)), key=lambda i: reference_projector_key(bases[i]))
        assert _key_order(bases).tolist() == want


class TestLightBranches:
    """Light branches share one eigenvalue cluster at the absolute t_deg in
    the full state, and split only because the SBD judges each cluster
    relative to its weight, from pair slices accurate to about
    eps / sqrt(weight)."""

    @pytest.mark.parametrize("eps", [1e-8, 1e-6])
    @pytest.mark.parametrize("dressing", [None, 0, 1, 2])
    def test_light_branches_split(self, eps, dressing, monkeypatch):
        state, unitaries = light_branch_state(eps, dressing)
        exact = [[u[:, [i]] @ u[:, [i]].conj().T for u in unitaries] for i in range(3)]
        for seed in range(5):
            monkeypatch.setattr(decomposition, "SBD_SEED", seed)
            d = maximal_decomposition(state).decomposition
            assert d.n_branches == 3
            assert np.max(np.abs(d.weights - [1 - eps, eps / 2, eps / 2])) <= 1e-12
            matched = []
            for branch in d.branches:
                errors = [
                    max(np.max(np.abs(p - q)) for p, q in zip(support_projectors(branch), level))
                    for level in exact
                ]
                assert min(errors) <= 1e-9
                matched.append(int(np.argmin(errors)))
            assert sorted(matched) == [0, 1, 2]
            assert oracle_verify_maximality_small(d).verdict != "fail"

    @pytest.mark.parametrize(
        "eps, ring_weights",
        [(eps, (0.6, 0.4)) for eps in (1.2e-9, 1e-8, 1e-6)] + [(1e-8, (1.0,))],
    )
    @pytest.mark.parametrize("dressing", [None, 0, 1, 2])
    def test_light_rings_split(self, eps, ring_weights, dressing, monkeypatch):
        # each ring's cluster lies within t_deg of the other's, and its
        # levels are t_supp-scale eigenvalues at eps = 1.2e-9
        state = light_rings_state(eps, ring_weights, dressing)
        want = [1 - eps] + [w * eps for w in ring_weights]
        for seed in range(2):
            monkeypatch.setattr(decomposition, "SBD_SEED", seed)
            d = maximal_decomposition(state).decomposition
            assert d.n_branches == 1 + len(ring_weights)
            assert np.max(np.abs(d.weights - want)) <= 1e-12
            assert [b.support_ranks for b in d.branches[1:]] == [(4, 4, 4)] * len(ring_weights)


class TestNoBranchSplitsAgain:
    """Each returned branch, restricted to its own supports, is one branch:
    the fixpoint that a recursive refinement of every branch used to
    enforce holds after one pass."""

    def test_branch_sub_states_are_single_branches(self, monkeypatch):
        states = [s for s in catalog_and_dressed_states() if s.n_subsystems > 2]
        states += [nested_state()]
        states += [two_ring_state(p, seed) for p in (0.6515562583499651, 0.9) for seed in (0, 260)]
        for dressing in (None, 0, 1, 2):
            states += [light_branch_state(eps, dressing)[0] for eps in (1e-8, 1e-6)]
            states += [light_rings_state(eps, (0.6, 0.4), dressing) for eps in (1.2e-9, 1e-6)]
        checked = 0
        for state in states:
            for seed in range(2):
                monkeypatch.setattr(decomposition, "SBD_SEED", seed)
                d = maximal_decomposition(state).decomposition
                for branch in d.branches:
                    ranks = branch.support_ranks
                    if min(ranks) < 2:  # a rank-one support cannot be split
                        continue
                    amps = reference_compress_vector(branch.vector, state.dims, branch.supports)
                    sub = maximal_decomposition(StateTensor(ranks, amps))
                    assert sub.decomposition.n_branches == 1, (state.dims, ranks)
                    checked += 1
                if state.total_dim <= 256:
                    assert oracle_verify_maximality_small(d).verdict != "fail"
        assert checked >= 70


def near_threshold_weights():
    """z-state weights on 3x3x3 where one tolerance decides the answer: the
    top two weights f t_deg apart, and a third branch at multiples of W_MIN
    and of t_supp."""
    tol = DEFAULT_TOLERANCES
    out = {}
    for f in (0.5, 1, 2, 3, 5, 10):
        gap = f * tol.t_deg
        out[f"gap-{f}-t_deg"] = (0.45 + gap / 2, 0.45 - gap / 2, 0.1)
    for c in (0.5, 2, 10):
        out[f"branch-{c}-w_min"] = (0.6, 0.4 - c * W_MIN, c * W_MIN)
    for c in (0.5, 2, 10, 30):
        out[f"branch-{c}-t_supp"] = (0.6, 0.4 - c * tol.t_supp, c * tol.t_supp)
    return out


class TestNearThresholdSweep:
    """Where a tolerance decides the answer, a run either returns a verified
    decomposition or raises InternalConsistencyError, and the oracle never
    finds a missed split.  Some runs still raise on these valid inputs: the
    w_min and t_supp cases, by the truncation mismatch.  The gap cases never
    raise and always give the three branches: gaps below the guard, where
    eigenvectors are accurate only to about eps/gap, are left to SBD."""

    @pytest.mark.parametrize("name", sorted(near_threshold_weights()))
    def test_verified_or_raises(self, name, monkeypatch):
        gap = name.startswith("gap")
        base = z_state(near_threshold_weights()[name])
        dressings, seeds = (range(4), range(5)) if gap else (range(3), range(2))
        for state in [base] + [dress_state(base, seed=d) for d in dressings]:
            for seed in seeds:
                monkeypatch.setattr(decomposition, "SBD_SEED", seed)
                try:
                    result = maximal_decomposition(state)
                except InternalConsistencyError:
                    if gap:
                        raise
                    continue
                assert verify_lo(result.decomposition).passed
                assert oracle_verify_maximality_small(result.decomposition).verdict != "fail"
                if gap:
                    assert result.decomposition.n_branches == 3

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.5, max_value=1e4),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_gap_sweep_never_raises(self, f, dressing, seed):
        # a top gap of f t_deg on 3x3x3, dressed: inside the guard band the
        # two clusters merge and SBD splits them, above it the eigenvectors do
        gap = f * DEFAULT_TOLERANCES.t_deg
        state = dress_state(z_state((0.45 + gap / 2, 0.45 - gap / 2, 0.1)), seed=dressing)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decomposition, "SBD_SEED", seed)
            result = maximal_decomposition(state)
        assert result.decomposition.n_branches == 3
        if abs(gap - _GUARD_GAP) > 1e-6 * _GUARD_GAP:  # rounding decides at the edge
            in_band = gap < _GUARD_GAP
            assert result.diagnostics.path == ("block-sbd" if in_band else "eigenvector-graph")
            assert result.diagnostics.degenerate_subsystems == ((0, 1, 2) if in_band else ())


class TestVerify:
    def test_passes_on_maximal(self):
        report = verify_lo(maximal_decomposition(ghz_state()).decomposition)
        assert report.passed

    def test_detects_bad_weight(self):
        d = maximal_decomposition(ghz_state()).decomposition
        tampered = BranchDecomposition(
            d.state,
            [
                Branch(0.7, d.branches[0].vector, d.branches[0].supports),
                d.branches[1],
            ],
        )
        report = verify_lo(tampered)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert "weight_sum" in failed or "reconstruction" in failed

    def test_detects_overlapping_supports(self):
        ghz = ghz_state()
        plus = np.array([[1.0], [1.0]]) / np.sqrt(2)
        d = maximal_decomposition(ghz).decomposition
        clashing = BranchDecomposition(
            ghz,
            [
                Branch(0.5, d.branches[0].vector, (plus, plus, plus)),
                Branch(0.5, d.branches[1].vector, (plus, plus, plus)),
            ],
        )
        report = verify_lo(clashing)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert "local_orthogonality" in failed

    def test_summary_mentions_every_check(self):
        report = verify_lo(maximal_decomposition(w_state()).decomposition)
        text = report.summary()
        for name in ("weight_sum", "reconstruction", "projector_identity"):
            assert name in text

    def test_branch_count_bound(self):
        report = verify_lo(maximal_decomposition(ghz_state(3, 4)).decomposition)
        check = {c.name: c for c in report.checks}["branch_count"]
        assert check.passed

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_support_entry_fails(self, entry):
        # one bad entry in branch 1's subsystem-2 support: a fold that drops
        # NaN would pass all eight checks
        d = maximal_decomposition(ghz_state()).decomposition
        supports = [b.copy() for b in d.branches[1].supports]
        supports[2][0, 0] = entry
        bad = Branch(d.branches[1].weight, d.branches[1].vector, supports)
        with np.errstate(invalid="ignore"):
            report = verify_lo(BranchDecomposition(d.state, [d.branches[0], bad]))
        checks = {c.name: c for c in report.checks}
        for name in ("support_orthonormality", "local_orthogonality", "projector_identity"):
            assert np.isnan(checks[name].residual) and not checks[name].passed, name
        assert not report.passed

    def test_nan_weights_fail(self):
        d = maximal_decomposition(ghz_state()).decomposition
        for br in d.branches:
            object.__setattr__(br, "weight", float("nan"))  # past Branch's own guard
        with np.errstate(invalid="ignore"):
            report = verify_lo(d)
        checks = {c.name: c for c in report.checks}
        for name in ("weights_positive", "projector_identity"):
            assert np.isnan(checks[name].residual) and not checks[name].passed, name
            assert f"FAIL  {name}: residual nan" in report.summary()


def catalog_and_dressed_states():
    states = [
        ghz_state(), ghz_state(3, 4), ghz_state(4), w_state(), w_state(4),
        z_state((0.5, 0.3, 0.2)), z_state((0.4, 0.3, 0.2, 0.1), dims=(4, 4, 4)),
        u_state(), v_state(), x_state(),
        product_state((2, 3, 2), split=1, seed=3), random_state((2, 3, 4), seed=5),
        random_state((3, 4), seed=1),
    ]
    for seed in range(3):
        states += [
            dress_state(z_state((0.45, 0.3, 0.15, 0.1), dims=(4, 4, 4)), seed=seed),
            dress_state(ghz_state(3, 3), seed=seed),
            dress_state(x_state(), seed=seed),
            dress_state(w_state(4), seed=seed),
        ]
    return states


def projector_identity(report):
    return {c.name: c for c in report.checks}["projector_identity"]


def turned(d, branch, n, direction, theta):
    """Copy of ``d`` with one support column turned by ``theta`` toward a unit vector."""
    branches = []
    for i, br in enumerate(d.branches):
        supports = list(br.supports)
        if i == branch:
            col = np.cos(theta) * supports[n][:, 0] + np.sin(theta) * direction
            supports[n] = np.column_stack([col, supports[n][:, 1:]])
        branches.append(Branch(br.weight, br.vector, supports))
    return BranchDecomposition(d.state, branches)


class TestVerifyAgainstReference:
    """The per-(subsystem, branch) projector check against the full N^2 k^2 loop."""

    def test_no_looser_than_reference(self):
        # the reference contains every term the batched check computes, so its
        # residual can only be larger, up to rounding of the product order
        for state in catalog_and_dressed_states():
            d = maximal_decomposition(state).decomposition
            new = projector_identity(verify_lo(d)).residual
            ref = reference_projector_identity(d)
            assert new <= ref + 1e-15, (state.dims, new, ref)
            assert new <= T_NINDEP

    def test_derived_tolerance(self):
        check = projector_identity(verify_lo(maximal_decomposition(ghz_state()).decomposition))
        assert check.tolerance == pytest.approx((T_NINDEP - 2e-9) / 2)

    @pytest.mark.parametrize("toward", ["other_branch", "outside_support"])
    def test_turned_supports(self, toward):
        state = dress_state(z_state((0.5, 0.3, 0.2), dims=(4, 4, 4)), seed=2)
        d = maximal_decomposition(state).decomposition
        n = 2
        if toward == "other_branch":
            direction = d.branches[1].supports[n][:, 0]
        else:
            used = np.hstack([br.supports[n] for br in d.branches])
            direction = np.linalg.svd(used.conj().T)[2][-1].conj()
        outcomes = []
        for theta in np.logspace(-12, -3, 37):
            candidate = turned(d, 0, n, direction, theta)
            passed = verify_lo(candidate).passed
            outcomes.append(passed)
            if passed:
                assert reference_projector_identity(candidate) <= T_NINDEP
        assert outcomes[0] and not outcomes[-1]


def spectral_support_residuals(d):
    """``support_orthonormality`` and ``local_orthogonality`` as spectral
    norms of the Gram blocks B_n^i^H B_n^j (less the identity when i = j),
    one block at a time: the norms that ``verify_lo`` took before it took
    Frobenius norms."""
    sup_dev = overlap = 0.0
    for n in range(d.state.n_subsystems):
        for i, bi in enumerate(d.branches):
            for j, bj in enumerate(d.branches):
                block = bi.supports[n].conj().T @ bj.supports[n]
                if i == j:
                    sup_dev = max(sup_dev, np.linalg.norm(block - np.eye(len(block)), 2))
                else:
                    overlap = max(overlap, np.linalg.norm(block, 2))
    return sup_dev, overlap


class TestSupportChecksFrobenius:
    """The support checks' Frobenius block norms are never below the
    spectral norms they replaced, so they fail whatever those failed."""

    def test_at_least_the_spectral_norms_on_perturbed_supports(self):
        rng = np.random.default_rng(7)
        checked = failed = 0
        for state in catalog_and_dressed_states()[:12]:
            d = maximal_decomposition(state).decomposition
            for scale in (0.0, 1e-12, 1e-9, 1e-6, 1e-3):
                branches = []
                for br in d.branches:
                    supports = []
                    for b in br.supports:
                        noise = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
                        supports.append(b + scale * noise)
                    branches.append(Branch(br.weight, br.vector, supports))
                perturbed = BranchDecomposition(d.state, branches)
                checks = {c.name: c for c in verify_lo(perturbed).checks}
                sup_dev, overlap = spectral_support_residuals(perturbed)
                frob_sup = checks["support_orthonormality"].residual
                frob_overlap = checks["local_orthogonality"].residual
                # up to the rounding of two product orders
                assert frob_sup >= sup_dev * (1 - 1e-12) - 1e-15
                assert frob_overlap >= overlap * (1 - 1e-12) - 1e-15
                if max(sup_dev, overlap) > VERIFY_ATOL:
                    assert not (checks["support_orthonormality"].passed
                                and checks["local_orthogonality"].passed)
                    failed += 1
                checked += 1
        assert checked == 60 and failed >= 12


class TestGraphAgainstReference:
    def test_edge_weights_are_joint_projections(self):
        for state in catalog_and_dressed_states():
            if state.n_subsystems == 2:
                continue
            blocks = [sbd_refine(state, n) for n in range(state.n_subsystems)]
            graph = caller_graph(state, blocks)
            accepted = {(a, b): w for a, b, w in graph.edges}
            rejected = []
            for a, na in enumerate(graph.nodes):
                for b in range(a + 1, len(graph.nodes)):
                    nb = graph.nodes[b]
                    if na.subsystem == nb.subsystem:
                        continue
                    # P_a P_b psi, one dense local projector at a time
                    vec = state.amps
                    for node in (na, nb):
                        projector = node.basis @ node.basis.conj().T
                        vec = apply_matrix_at(vec, state.dims, node.subsystem, projector)
                    want = float(np.vdot(vec, vec).real)
                    if (a, b) in accepted:
                        assert abs(accepted[a, b] - want) <= 1e-12
                    else:
                        rejected.append(want)
            if rejected:
                assert abs(graph.max_rejected_edge - max(rejected)) <= 1e-12


def frame_states():
    """Three-or-more-party states for the rotated-frame checks: the catalog,
    dressed states, every workload of the benchmark, and rank-deficient
    dressed states, whose frames need a support complement."""
    out = [s for s in catalog_and_dressed_states() if s.n_subsystems >= 3]
    out.append(nested_state())
    for workload in sorted(bench_states.WORKLOADS):
        out += [StateTensor(c.dims, c.amps) for c in bench_states.make_cases(workload, 21)[:2]]
    for seed in range(2):
        out += [
            dress_state(z_state((0.5, 0.3, 0.2), dims=(5, 6, 4)), seed=seed),
            dress_state(z_state((0.5, 0.5), dims=(3, 4, 3)), seed=seed),
        ]
    return out


def frame_partitions(state):
    """The partitions the pipeline would assemble: eigenvector lines and SBD blocks."""
    return [sbd_refine(state, n) for n in range(state.n_subsystems)]


def turned_partition(state, n, theta):
    """Eigenvector lines, with lines 0 and 1 on subsystem n turned by theta in their plane."""
    partitions = frame_partitions(state)
    e0, e1 = partitions[n][0][:, 0], partitions[n][1][:, 0]
    partitions[n][0] = (np.cos(theta) * e0 + np.sin(theta) * e1)[:, None]
    partitions[n][1] = (np.cos(theta) * e1 - np.sin(theta) * e0)[:, None]
    return partitions


class TestRotatedFrameAgainstReference:
    """Decompositions assembled from one rotated frame, against the
    full-vector projections that judge them."""

    def test_rank_deficient_branches(self):
        state = dress_state(z_state((0.5, 0.3, 0.2), dims=(5, 6, 4)), seed=3)
        result = maximal_decomposition(state)
        assert result.decomposition.n_branches == 3
        assert np.allclose(result.decomposition.weights, [0.5, 0.3, 0.2], atol=1e-12)

    @pytest.mark.parametrize("dims", [(3, 3, 3), (5, 6, 4)])
    def test_near_threshold_sweep(self, dims):
        # turning two eigenvector lines on subsystem 0 by theta makes the
        # extraction subsystem-dependent by about theta sqrt(w_0 + w_1); from
        # theta ~ 1e-5 the turned lines also join both components, which makes
        # it consistent again.  assemble_branches raises exactly where
        # verify_lo's projector identity fails, at (T_NINDEP - 2 VERIFY_ATOL) / 2,
        # and the steps around theta_c put the residual 4e-12 and 4e-11 either
        # side of it
        limit = (T_NINDEP - 2 * VERIFY_ATOL) / 2
        theta_c = limit / np.sqrt(0.8)
        state = dress_state(z_state((0.5, 0.3, 0.2), dims=dims), seed=4)
        outcomes = []
        steps = theta_c * (1 + np.array([-1e-2, -1e-3, 1e-3, 1e-2]))
        for theta in np.concatenate([np.logspace(-12, -3, 46), steps]):
            partitions = turned_partition(state, 0, theta)
            graph = caller_graph(state, partitions)
            residual = max(
                float(np.linalg.norm(v - vectors[0]))
                for vectors in reference_component_projections(state, graph)
                for v in vectors
            )
            try:
                assemble_branches(state, partitions)
                raised = False
            except InternalConsistencyError:
                raised = True
            if abs(residual - limit) > 1e-12:
                assert raised == (residual > limit), (theta, residual)
            if not raised:  # the pairwise bound the assembly used to check itself
                assert float(reference_component_residuals(state, graph).max()) <= T_NINDEP
            outcomes.append(raised)
        assert not outcomes[0] and any(outcomes) and not outcomes[45]
        assert outcomes[-4:] == [False, False, True, True]


class TestPipelineFrames:
    """The pipeline's frames come complete from rho_n's eigenbasis: its
    out-of-support eigenvectors complete each frame, so no QR is taken."""

    def test_frames_are_unitaries_that_start_with_the_blocks(self):
        tol = DEFAULT_TOLERANCES
        frames = deficient = 0
        worst = 0.0
        for state in frame_states():
            pipeline = _support_partitions(state, range(state.n_subsystems), tol)[0]
            for n, (frame, bounds) in enumerate(pipeline):
                ((alone, cuts),) = _support_partitions(state, [n], tol)[0]
                for u in (frame, alone):
                    assert u.shape == (state.dims[n],) * 2
                    worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(len(u))))))
                blocks = sbd_refine(state, n, tol)
                assert list(np.diff(cuts)) == [b.shape[1] for b in blocks]
                assert np.array_equal(alone[:, : cuts[-1]], np.hstack(blocks))
                assert bounds[-1] == cuts[-1]
                frames += 1
                deficient += bounds[-1] < state.dims[n]
        assert worst <= 1e-13
        assert frames >= 100 and deficient >= 10


def hadamard_fake():
    """GHZ's two branch vectors claimed with supports in the Hadamard basis:
    weights, vectors and supports each look fine, but P_n psi is not
    sqrt(w) v on any subsystem, so ``projector_identity`` fails."""
    ghz = ghz_state()
    good = maximal_decomposition(ghz).decomposition
    plus = np.array([[1.0], [1.0]]) / np.sqrt(2)
    minus = np.array([[1.0], [-1.0]]) / np.sqrt(2)
    return BranchDecomposition(
        ghz,
        [
            Branch(0.5, good.branches[0].vector, (plus, plus, plus)),
            Branch(0.5, good.branches[1].vector, (minus, minus, minus)),
        ],
    )


def failed_checks(excinfo) -> set:
    return {c.name for c in excinfo.value.report.checks if not c.passed}


class TestTrivial:
    def test_single_branch(self):
        d = trivial_decomposition(ghz_state())
        assert d.n_branches == 1
        assert verify_lo(d).passed

    def test_supports_cover_state(self):
        d = trivial_decomposition(v_state())
        assert d.branches[0].support_ranks == (2, 4, 2)

    def test_support_cutoff_that_drops_weight_raises(self):
        # t_supp = 0.05 cuts the 0.01 branch out of every support: the
        # projected branch carries weight 0.99 and misses the state by 0.1
        state = dress_state(z_state((0.6, 0.39, 0.01)), 2)
        with pytest.raises(InternalConsistencyError, match="FAIL  reconstruction") as excinfo:
            trivial_decomposition(state, Tolerances(t_supp=0.05))
        assert failed_checks(excinfo) == {"weight_sum", "reconstruction"}
        residuals = {c.name: c.residual for c in excinfo.value.report.checks}
        assert residuals["reconstruction"] == pytest.approx(0.1)


class TestCoarseGrain:
    def test_merge_all(self):
        full = maximal_decomposition(z_state((0.5, 0.3, 0.2))).decomposition
        merged = coarse_grain(full, [[0, 1, 2]])
        assert merged.n_branches == 1
        assert abs(merged.branches[0].weight - 1.0) < 1e-12
        assert verify_lo(merged).passed

    def test_pairwise_merge_weights_add(self):
        full = maximal_decomposition(z_state((0.5, 0.3, 0.2))).decomposition
        merged = coarse_grain(full, [[0], [1, 2]])
        assert merged.n_branches == 2
        assert np.allclose(np.sort(merged.weights), [0.5, 0.5])

    def test_is_coarse_graining(self):
        full = maximal_decomposition(z_state((0.4, 0.3, 0.2, 0.1), 3, (4, 4, 4))).decomposition
        merged = coarse_grain(full, [[0, 3], [1], [2]])
        assert is_coarse_graining_of(merged, full)

    def test_non_lo_input_raises(self):
        with pytest.raises(InternalConsistencyError, match="FAIL  projector_identity") as excinfo:
            coarse_grain(hadamard_fake(), [[0], [1]])
        assert failed_checks(excinfo) == {"projector_identity"}

    def test_partition_validation(self):
        # the one check the test-side helper keeps: the `oracle` digest of
        # tools/report_digest.py hashes its refusal on one-branch states
        full = maximal_decomposition(ghz_state()).decomposition
        for merge in ([[0]], [[0, 1], [1]], [[0, 1, 2]]):
            with pytest.raises(ValueError, match="merge must be a partition of the branch indices"):
                coarse_grain(full, merge)
        one = maximal_decomposition(w_state()).decomposition
        assert one.n_branches == 1
        with pytest.raises(ValueError, match="merge must be a partition of the branch indices"):
            coarse_grain(one, [[0, 1]])


class TestCommonFineGraining:
    def test_identity_on_equal_inputs(self):
        full = maximal_decomposition(z_state((0.5, 0.3, 0.2))).decomposition
        again = common_fine_graining(full, full)
        assert_same_decomposition(again, full)

    def test_trivial_against_maximal(self):
        full = maximal_decomposition(ghz_state()).decomposition
        fg = common_fine_graining(trivial_decomposition(ghz_state()), full)
        assert_same_decomposition(fg, full)

    def test_two_coarse_grainings_meet(self):
        full = maximal_decomposition(z_state((0.4, 0.3, 0.2, 0.1), 3, (4, 4, 4))).decomposition
        c1 = coarse_grain(full, [[0, 1], [2, 3]])
        c2 = coarse_grain(full, [[0, 2], [1, 3]])
        fg = common_fine_graining(c1, c2)
        assert fg.n_branches == 4
        assert verify_lo(fg).passed
        assert is_coarse_graining_of(c1, fg)
        assert is_coarse_graining_of(c2, fg)

    @pytest.mark.parametrize("fake_first", [True, False])
    def test_inconsistent_input_detected(self, fake_first):
        # an input that fails verify_lo is refused at the door, whichever it is
        fake, good = hadamard_fake(), maximal_decomposition(ghz_state()).decomposition
        inputs = (fake, good) if fake_first else (good, fake)
        with pytest.raises(InternalConsistencyError, match="input decomposition failed") as excinfo:
            common_fine_graining(*inputs)
        assert failed_checks(excinfo) == {"projector_identity"}

    def test_inputs_judged_and_one_projection_order(self, monkeypatch):
        # verify_lo judges both inputs, then the result; outside verify_lo each
        # of the k1 k2 pairs takes one projection per subsystem, and the
        # branches come from one more product
        full = maximal_decomposition(z_state((0.5, 0.3, 0.2))).decomposition
        merged = coarse_grain(full, [[0, 1], [2]])
        judged, calls, inside = [], [], []
        verify, project = decomposition.verify_lo, decomposition.project_supports

        def counting_verify(d):
            judged.append(d)
            inside.append(True)
            try:
                return verify(d)
            finally:
                inside.pop()

        def counting_project(*args):
            calls.append(bool(inside))
            return project(*args)

        monkeypatch.setattr(decomposition, "verify_lo", counting_verify)
        monkeypatch.setattr(decomposition, "project_supports", counting_project)
        monkeypatch.setattr(util, "project_supports", counting_project)
        fg = common_fine_graining(full, merged)
        assert judged[0] is full and judged[1] is merged and judged[2] is fg and len(judged) == 3
        assert calls.count(False) == 3 * 2 * 3 + 1
        assert calls.count(True) == 3 * 3
        assert_same_decomposition(fg, full)


class TestComponentRoots:
    """The closure labelling of the graph and of the SBD merge against a
    union-find over the same edges."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=0.0, max_value=0.3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_union_find(self, size, stack, density, seed):
        rng = np.random.default_rng(seed)
        linked = np.triu(rng.random((stack, size, size)) < density, 1)
        roots = _component_roots(linked | linked.swapaxes(1, 2))
        for one, got in zip(linked, roots):
            uf = UnionFind(size)
            for a, b in zip(*np.nonzero(one)):
                uf.union(int(a), int(b))
            assert got.tolist() == [uf.find(a) for a in range(size)]

    def test_graph_components_match_union_find(self):
        checked = 0
        for state in frame_states():
            graph = caller_graph(state, frame_partitions(state))
            uf = UnionFind(len(graph.nodes))
            for a, b, _ in graph.edges:
                uf.union(a, b)
            assert list(graph.components) == uf.groups()
            checked += len(graph.components) > 1
        assert checked > 10


class TestCorrelationGraph:
    def test_ghz_components(self):
        ghz = ghz_state()
        blocks = [computational_blocks(2) for _ in range(3)]
        graph = caller_graph(ghz, blocks)
        assert len(graph.nodes) == 6
        assert len(graph.components) == 2
        assert graph.min_accepted_edge == pytest.approx(0.5)
        assert graph.max_rejected_edge <= 1e-12

    def test_w_fully_connected(self):
        w = w_state()
        blocks = [
            [local_spectrum(w, n).eigenvectors[:, [k]] for k in range(2)]
            for n in range(3)
        ]
        graph = caller_graph(w, blocks)
        assert len(graph.components) == 1

    def test_rejects_non_orthonormal_blocks(self):
        ghz = ghz_state()
        bad = [[np.array([[1.0], [1.0]])], [np.eye(2)], [np.eye(2)]]
        with pytest.raises(ValueError, match="orthonormal"):
            caller_graph(ghz, bad)

    def test_rejects_blocks_missing_support(self):
        ghz = ghz_state()
        partial = [[np.array([1.0, 0.0])], computational_blocks(2), computational_blocks(2)]
        with pytest.raises(ValueError, match="span"):
            caller_graph(ghz, partial)

    def test_rejects_blocks_outside_support(self):
        # the third subsystem of |U> is pure, so the full basis overshoots
        blocks = [computational_blocks(2)] * 3
        with pytest.raises(ValueError, match="span"):
            caller_graph(u_state(), blocks)

    def test_wrong_block_count(self):
        with pytest.raises(ValueError):
            caller_graph(ghz_state(), [computational_blocks(2)] * 2)

    def test_edge_threshold_that_strands_a_block_raises(self):
        # every ghz edge weighs 0.5: at t_edge 0.6 each block stands alone,
        # which used to raise InternalConsistencyError
        message = ("t_edge 0.6 leaves a correlation-graph component without subsystem 1: "
                   "the largest rejected edge weight is 0.5")
        with pytest.raises(ValueError, match=re.escape(message)):
            assemble_branches(ghz_state(), [computational_blocks(2)] * 3, Tolerances(t_edge=0.6))


QUBIT = computational_blocks(2)
BAD_BLOCKS = {  # fault: (state, blocks, the ValueError's message)
    "block count": (ghz_state(), [QUBIT] * 2, "need one block list per subsystem"),
    "no blocks": (ghz_state(), [[], QUBIT, QUBIT], "subsystem 0 has no blocks"),
    "wrong dimension": (ghz_state(), [QUBIT, [np.eye(3)], QUBIT],
                        "block on subsystem 1 has wrong shape (3, 3)"),
    "empty block": (ghz_state(), [QUBIT, QUBIT, [np.eye(2), np.zeros((2, 0))]],
                    "block on subsystem 2 has wrong shape (2, 0)"),
    "not orthonormal": (ghz_state(), [[np.array([[1.0], [1.0]])], [np.eye(2)], [np.eye(2)]],
                        "blocks on subsystem 0 are not mutually orthonormal"),
    "misses the support": (ghz_state(), [[np.array([1.0, 0.0])], QUBIT, QUBIT],
                           "blocks on subsystem 0 do not span the local support exactly"),
    # the third subsystem of |U> is pure, so the full basis overshoots
    "overshoots the support": (u_state(), [QUBIT] * 3,
                               "blocks on subsystem 2 do not span the local support exactly"),
    "0-d block": (ghz_state(), [QUBIT, [np.array(1.0)], QUBIT],
                  "block on subsystem 1 has wrong shape ()"),
    "3-d block": (ghz_state(), [QUBIT, QUBIT, [np.ones((2, 1, 1))]],
                  "block on subsystem 2 has wrong shape (2, 1, 1)"),
    # NaN fails every comparison, so each guard must be one that NaN cannot pass
    "not finite": (ghz_state(), [[np.array([[np.nan], [0.0]]), QUBIT[1]], QUBIT, QUBIT],
                   "blocks on subsystem 0 are not mutually orthonormal"),
}


class TestBlockChecks:
    """Caller blocks are checked once, by `_checked_frames`: behind
    `assemble_branches`, the one public door that takes them, and behind the
    correlation graph of caller blocks; the pipeline's own blocks never pass
    through the checks."""

    @pytest.mark.parametrize("door", [
        assemble_branches,
        pytest.param(caller_graph, id="build_correlation_graph"),
    ])
    @pytest.mark.parametrize("fault", list(BAD_BLOCKS))
    def test_doors_reject_bad_blocks(self, door, fault):
        state, blocks, message = BAD_BLOCKS[fault]
        with pytest.raises(ValueError, match=re.escape(message)):
            door(state, blocks)

    @pytest.mark.parametrize("size, raises", [(3e-9, True), (3e-10, False)])
    def test_blocks_off_by_more_than_verify_atol_are_invalid_input(self, size, raises):
        # blocks off orthonormal, or turned off the support, by more than
        # VERIFY_ATOL once passed the door and then failed verify_lo, which
        # judges at VERIFY_ATOL, as an internal error
        scaled = dress_state(z_state((0.5, 0.3, 0.2)), 1)
        scaled_blocks = spectral_blocks(scaled)
        scaled_blocks[0][0] = scaled_blocks[0][0] * (1 + size)
        turned = dress_state(z_state((0.6, 0.4), dims=(3, 3, 3)), 0)
        spec = local_spectrum(turned, 0)
        assert spec.support_rank == 2
        kernel = spec.eigenvectors[:, [2]]
        turned_blocks = spectral_blocks(turned)
        turned_blocks[0][0] = np.cos(size) * turned_blocks[0][0] + np.sin(size) * kernel
        cases = [(scaled, scaled_blocks, 3, "blocks on subsystem 0 are not mutually orthonormal"),
                 (turned, turned_blocks, 2,
                  "blocks on subsystem 0 do not span the local support exactly")]
        for state, partition, count, message in cases:
            if raises:
                with pytest.raises(ValueError, match=re.escape(message)):
                    assemble_branches(state, partition)
            else:
                assert assemble_branches(state, partition).n_branches == count

    def test_door_passes_no_blocks_the_support_checks_fail(self):
        # a block scaled by 1 + eps is off orthonormal by about 2 eps in the
        # Gram matrix and in the span: every eps either stops at the door or
        # yields a decomposition, never a support check's internal error
        states = [dress_state(z_state((0.5, 0.3, 0.2)), 1),
                  dress_state(z_state((0.6, 0.4), dims=(3, 3, 3)), 0),
                  dress_state(z_state((0.45, 0.3, 0.15, 0.1), dims=(4, 4, 4)), 2),
                  dress_state(ghz_state(3, 3), 0)]
        outcomes = set()
        for state in states:
            partitions = frame_partitions(state)
            for eps in np.logspace(-10, -8, 9):
                for n in range(state.n_subsystems):
                    blocks = [list(p) for p in partitions]
                    blocks[n][0] = blocks[n][0] * (1 + eps)
                    try:
                        assemble_branches(state, blocks)
                        outcomes.add("returned")
                    except ValueError as exc:
                        assert f"blocks on subsystem {n} are not mutually orthonormal" in str(exc)
                        outcomes.add("refused")
        assert outcomes == {"returned", "refused"}

    def test_partition_fault_is_internal(self, monkeypatch, tmp_path):
        # SBD parts a little off orthonormal: the pipeline does not check
        # its own blocks, so verify_lo must catch them, and the CLI exit 3
        split = decomposition._split_cluster

        def scaled(*args):
            return [p * (1 + 1e-6) for p in split(*args)]

        monkeypatch.setattr(decomposition, "_split_cluster", scaled)
        state = dress_state(ghz_state(3, 3), 0)
        with pytest.raises(InternalConsistencyError):
            maximal_decomposition(state)
        path = tmp_path / "state.json"
        StateFile.from_state(state).write(path)
        assert cli.main(["decompose", str(path), "-o", str(tmp_path / "report.json")]) == 3

    def test_pipeline_computes_each_spectrum_once(self, monkeypatch):
        # N calls, all in the partition: the block checks, which compute
        # each spectrum again, stay off the pipeline's path
        calls = []

        def counting(state, n, *args, **kwargs):
            calls.append(n)
            return local_spectrum(state, n, *args, **kwargs)

        monkeypatch.setattr(decomposition, "local_spectrum", counting)
        for state in (dress_state(ghz_state(3, 3), 0), dress_state(z_state((0.5, 0.3, 0.2)), 1),
                      x_state(), ghz_state(4)):
            calls.clear()
            maximal_decomposition(state)
            assert sorted(calls) == list(range(state.n_subsystems))


class TestSbdRefine:
    def test_ghz_splits_to_levels(self):
        parts = sbd_refine(ghz_state(), 0)
        assert len(parts) == 2
        projs = sorted(
            np.round(p @ p.conj().T, 8).real.tolist() for p in parts
        )
        assert projs == sorted([np.diag([1.0, 0.0]).tolist(), np.diag([0.0, 1.0]).tolist()])

    def test_x_state_stays_whole(self):
        # pairwise correlations couple the whole support: nothing may split
        for n in range(3):
            parts = sbd_refine(x_state(), n)
            assert len(parts) == 1
            assert parts[0].shape == (4, 4)

    def test_equal_weight_z_fully_splits(self):
        state = z_state((0.25,) * 4, 3, (4, 4, 4))
        parts = sbd_refine(state, 1)
        assert len(parts) == 4
        assert all(p.shape == (4, 1) for p in parts)

    @pytest.mark.parametrize("seed", range(5))
    def test_seed_deterministic(self, seed, monkeypatch):
        monkeypatch.setattr(decomposition, "SBD_SEED", seed)
        a = sbd_refine(ghz_state(4, 3), 2)
        b = sbd_refine(ghz_state(4, 3), 2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_seed_independent_subspaces(self, monkeypatch):
        projectors = []
        for seed in range(5):
            monkeypatch.setattr(decomposition, "SBD_SEED", seed)
            blocks = sbd_refine(z_state((0.5, 0.5)), 0)
            projectors.append(sorted(np.round(p @ p.conj().T, 8).real.tolist() for p in blocks))
        assert all(p == projectors[0] for p in projectors[1:])

    def test_bipartite_rejected(self):
        bell = StateTensor((2, 2), np.array([1, 0, 0, 1.0]))
        with pytest.raises(UnsupportedOperationError):
            sbd_refine(bell, 0)

    def test_bad_subsystem(self):
        with pytest.raises(ValueError):
            sbd_refine(ghz_state(), 5)


def two_ring_state(p, seed):
    """Like the benchmark's degenerate workload: the x-state ring in two
    orthogonal 4-dim blocks per party, weights p and 1 - p, dressed."""
    core = np.zeros((8, 8, 8), dtype=np.complex128)
    ring = x_state().amps.reshape(4, 4, 4)
    core[:4, :4, :4] = np.sqrt(p) * ring
    core[4:, 4:, 4:] = np.sqrt(1 - p) * ring
    return dress_state(StateTensor((8, 8, 8), core.reshape(-1)), seed=seed)


def plain_slices(state):
    """Every subsystem's pair-state slices, with no subsystem rotated."""
    return _eigenframe_slices(state, [], range(state.n_subsystems))


def side_by_side(family):
    """A stack of slices as ``_merge_coupled`` takes it: (F_1 | ... | F_L)."""
    return np.hstack(list(family))


def merge_round(parts, layout, starts, t_edge):
    """One round of ``_merge_coupled`` on a list of parts: the merged parts,
    each the hstack of its members in order."""
    frame = np.hstack(parts)
    labels = np.repeat(np.arange(len(parts)), [p.shape[1] for p in parts])
    groups = _merge_coupled(frame[None], labels[None], layout, starts, t_edge)[0]
    return [frame[:, groups == g] for g in range(groups.max() + 1)]


def reference_batch_merge(frames, labels, layout, starts, t_edge, calls=None):
    """``reference_merge_coupled`` behind ``_merge_coupled``'s signature: one
    round at a time, one member per slice of the layout, ``starts`` unused.
    Appends each round's candidate count to ``calls`` when given."""
    size = len(layout)
    members = [layout[:, k:k + size] for k in range(0, layout.shape[1], size)]
    out = []
    for frame, label in zip(frames, labels):
        parts = [frame[:, label == c] for c in range(label.max() + 1)]
        if calls is not None:
            calls.append(len(parts))
        part_of = np.empty(len(parts), dtype=int)
        for g, grp in enumerate(reference_merge_groups(parts, members, t_edge)):
            part_of[list(grp)] = g
        out.append(part_of[label])
    return np.array(out)


def planted_merge_case(seed):
    """Random parts of a rank-r space and a Hermitian family that couples
    them as known, with some cross blocks planted at t_edge (1 +- 1e-6).

    Members are built in the parts' own frame G and rotated out,
    F = U G U^H, so B_b^H F B_a = G[b, a] up to rounding.  With U a
    permutation that is exact, and t_edge is the default; with U Haar the
    rounding is about 1e-16, so t_edge is 1e-4.  Returns the parts, the
    family, t_edge and the part groups a correct merge must give.
    """
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(2, 10))
    n_parts = int(rng.integers(2, rank + 1))
    cuts = np.sort(rng.choice(np.arange(1, rank), n_parts - 1, replace=False))
    edges = np.concatenate([[0], cuts, [rank]])
    if rng.random() < 0.5:
        frame, t_edge = np.eye(rank)[:, rng.permutation(rank)], DEFAULT_TOLERANCES.t_edge
    else:
        frame, t_edge = haar_unitary(rank, rng), 1e-4
    parts = [frame[:, edges[i]:edges[i + 1]].astype(np.complex128) for i in range(n_parts)]
    labels = rng.integers(0, 3, size=n_parts)  # parts sharing a label are coupled
    in_frame = []
    for _ in range(int(rng.integers(1, 6))):
        g = np.zeros((rank, rank), dtype=np.complex128)
        for a in range(n_parts):
            for b in range(a, n_parts):
                if labels[a] == labels[b]:
                    rows, cols = slice(edges[b], edges[b + 1]), slice(edges[a], edges[a + 1])
                    shape = (rows.stop - rows.start, cols.stop - cols.start)
                    g[rows, cols] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        in_frame.append((g + g.conj().T) / 2)
    joined = [(a, b) for a in range(n_parts) for b in range(a + 1, n_parts) if labels[a] == labels[b]]
    for a in range(n_parts):
        for b in range(a + 1, n_parts):
            if labels[a] == labels[b] or rng.random() < 0.5:
                continue
            above = rng.random() < 0.5
            rows, cols = slice(edges[b], edges[b + 1]), slice(edges[a], edges[a + 1])
            shape = (rows.stop - rows.start, cols.stop - cols.start)
            k = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            k *= t_edge * (1 + (1e-6 if above else -1e-6)) / np.linalg.norm(k)
            g = in_frame[int(rng.integers(len(in_frame)))]
            g[rows, cols] += k
            g[cols, rows] += k.conj().T
            if above:
                joined.append((a, b))
    family = np.stack([frame @ g @ frame.conj().T for g in in_frame])
    groups = {a: {a} for a in range(n_parts)}
    for a, b in joined:
        merged = groups[a] | groups[b]
        for i in merged:
            groups[i] = merged
    expected = sorted({tuple(sorted(g)) for g in groups.values()})
    return parts, family, t_edge, expected


class TestBatchedSbdAgainstReference:
    """The batched pair slices and merge test against the loops they replaced."""

    @settings(max_examples=90, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["spanning", "padded", "single"]),
    )
    def test_merge_groups_match_loop(self, seed, shape):
        # "padded" embeds the parts and the family in a larger space whose
        # extra coordinates the parts leave out (p < s): those rows and
        # columns of the family are random and must not count.  "single"
        # hands all the parts over as one part, which must come back whole
        parts, family, t_edge, expected = planted_merge_case(seed)
        if shape == "padded":
            rng = np.random.default_rng(seed)
            rank, extra = family.shape[1], int(rng.integers(1, 4))
            parts = [np.vstack([p, np.zeros((extra, p.shape[1]))]) for p in parts]
            full = (len(family), rank + extra, rank + extra)
            noise = rng.standard_normal(full) + 1j * rng.standard_normal(full)
            padded = noise + noise.conj().transpose(0, 2, 1)
            padded[:, :rank, :rank] = family
            family = padded
        elif shape == "single":
            parts, expected = [np.hstack(parts)], [(0,)]
        got = merge_round(parts, side_by_side(family), np.arange(len(family)), t_edge)
        want = reference_merge_coupled(parts, list(family), t_edge)
        assert len(got) == len(want) == len(expected)
        for g, w, grp in zip(got, want, expected):
            assert np.array_equal(g, w)
            assert np.array_equal(g, np.hstack([parts[i] for i in grp]))

    def test_merge_coarsens_the_correlation_family_merge(self):
        # the pair-state norm bounds every old member's cross block, so it
        # merges whatever the per-member test merged.  Candidates are random
        # splits of each cluster with more than one member, and random
        # splits inside each of its SBD blocks, which must stay apart
        rng = np.random.default_rng(12)
        tol = DEFAULT_TOLERANCES
        checked = kept_apart = 0
        for state in sbd_states():
            slices = plain_slices(state)
            for n in range(state.n_subsystems):
                spec = local_spectrum(state, n)
                family, starts = slices[n]
                for cluster in spec.clusters:
                    basis = spec.eigenvectors[:, [i for i in cluster if i < spec.support_rank]]
                    if basis.shape[1] < 2:
                        continue
                    members = reference_correlation_family(state, n, basis)
                    compressed = basis.conj().T @ family @ basis
                    blocks = _split_cluster(compressed, starts, tol, rng, n)
                    candidates = [random_split(rng, np.eye(basis.shape[1]))]
                    for _ in range(2):
                        candidates.append([p for b in blocks for p in random_split(rng, b)])
                    for parts in candidates:
                        got = merge_round(parts, side_by_side(compressed), starts, tol.t_edge)
                        want = reference_merge_coupled(parts, members, tol.t_edge)
                        got, want = part_groups(parts, got), part_groups(parts, want)
                        assert all(any(set(w) <= set(g) for g in got) for w in want)
                        checked += 1
                        kept_apart += len(got) > 1
        assert checked > 100 and kept_apart > 30

    @pytest.mark.parametrize("scale", [0.5, 1.5])
    def test_merge_independent_of_the_other_local_basis(self, scale):
        # a rho_nm block-diagonal over two parts of n, plus a cross block of
        # Frobenius norm scale * t_edge, merges or not alike under any
        # unitary on m
        t_edge = DEFAULT_TOLERANCES.t_edge
        d_n, d_m = 4, 3
        for seed in range(20):
            rng = np.random.default_rng(seed)
            frame = haar_unitary(d_n, rng)
            parts = [frame[:, :2], frame[:, 2:]]
            rho = np.zeros((d_n, d_m, d_n, d_m), dtype=np.complex128)
            for part in parts:
                g = rng.standard_normal((2 * d_m,) * 2) + 1j * rng.standard_normal((2 * d_m,) * 2)
                g = (g @ g.conj().T).reshape(2, d_m, 2, d_m)
                g /= 2 * np.einsum("aiai->", g).real  # unit trace over both parts
                rho += np.einsum("xa,aibj,yb->xiyj", part, g, part.conj())
            k = rng.standard_normal((2, d_m, 2, d_m)) + 1j * rng.standard_normal((2, d_m, 2, d_m))
            k *= scale * t_edge / np.linalg.norm(k)
            cross = np.einsum("xa,aibj,yb->xiyj", parts[1], k, parts[0].conj())
            rho += cross + cross.conj().transpose(2, 3, 0, 1)
            u = haar_unitary(d_m, rng)
            turned = np.einsum("ia,xayb,jb->xiyj", u, rho, u.conj())
            for r in (rho, turned):
                family, starts = reference_pair_slices(0, {(0, 1): r})
                merged = merge_round(parts, side_by_side(family), starts, t_edge)
                assert len(merged) == (1 if scale > 1 else 2)

    def test_slices_match_loop(self):
        # in the plain frame and in every subsystem's eigenframe: the slices
        # are those of the explicit loop over partial traces of the rotated
        # state, bit for bit
        for state in sbd_states():
            everyone = range(state.n_subsystems)
            spectra = [local_spectrum(state, n) for n in everyone]
            for given in ([], spectra):
                slices = _eigenframe_slices(state, given, everyone)
                amps = state.amps
                for spec in given:
                    turn = spec.eigenvectors.conj().T
                    amps = apply_matrix_at(amps, state.dims, spec.subsystem, turn)
                rotated = StateTensor(state.dims, amps)
                for n in everyone:
                    family, starts = slices[n]
                    others = [m for m in everyone if m != n]
                    sizes = [state.dims[m] ** 2 for m in others]
                    assert list(starts) == list(np.cumsum([0] + sizes[:-1]))
                    for m, start in zip(others, starts):
                        d_n, d_m = state.dims[n], state.dims[m]
                        rho = partial_trace(rotated, [n, m])
                        if n < m:
                            rho4 = rho.reshape(d_n, d_m, d_n, d_m)
                        else:
                            rho4 = rho.reshape(d_m, d_n, d_m, d_n).transpose(1, 0, 3, 2)
                        for a in range(d_m):
                            for b in range(d_m):
                                assert np.array_equal(family[start + a * d_m + b], rho4[:, a, :, b])

    def test_slices_for_one_subsystem_match_all_pairs(self):
        # the slices of n do not depend on which other subsystems need
        # slices, and equal, bit for bit, those of the per-pair helpers the
        # builder replaced: sbd_refine's (only n in its eigenframe) and the
        # pipeline's (every subsystem in its eigenframe)
        for state in (dress_state(ghz_state(4, 3), seed=2), two_ring_state(0.7, seed=1)):
            everyone = range(state.n_subsystems)
            spectra = [local_spectrum(state, n) for n in everyone]
            pipeline = _eigenframe_slices(state, spectra, everyone)
            all_pairs = reference_eigenframe_pair_states(state, spectra)
            for n in everyone:
                alone = _eigenframe_slices(state, spectra, (n,))[n]
                refine = _eigenframe_slices(state, [spectra[n]], (n,))[n]
                own = reference_eigenframe_pair_states(state, [spectra[n]], n)
                want = reference_pair_slices(n, own)
                for (a, starts_a), (b, starts_b) in (
                    (alone, pipeline[n]),
                    (pipeline[n], reference_pair_slices(n, all_pairs)),
                    (refine, want),
                ):
                    assert np.array_equal(a, b) and np.array_equal(starts_a, starts_b)

    def test_eigenframe_cluster_slices_are_the_compressed_slices(self):
        # with subsystem n in its eigenbasis, a cluster's slices are a basic
        # slice of the family and equal B^H F B of the unrotated family
        checked = 0
        for state in sbd_states():
            slices = plain_slices(state)
            for n in range(state.n_subsystems):
                spec = local_spectrum(state, n)
                family, starts = slices[n]
                rotated, rotated_starts = _eigenframe_slices(state, [spec], (n,))[n]
                assert np.array_equal(starts, rotated_starts)
                for cluster in spec.clusters:
                    lo, hi = cluster[0], min(cluster[-1] + 1, spec.support_rank)
                    if hi - lo < 2:
                        continue
                    basis = spec.eigenvectors[:, lo:hi]
                    compressed = basis.conj().T @ family @ basis
                    assert np.max(np.abs(rotated[:, lo:hi, lo:hi] - compressed)) <= 1e-14
                    checked += 1
        assert checked >= 40

    def test_non_degenerate_partition_is_the_eigenvector_columns(self, monkeypatch):
        def no_generator(seed):
            raise AssertionError("a subsystem that needs no SBD built a generator")

        states = frame_states()
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        checked = 0
        for state in states:
            for n in range(state.n_subsystems):
                spec = local_spectrum(state, n, _GUARD_GAP)
                if spec.is_support_degenerate:
                    continue
                # a subsystem that needs no SBD builds no generator
                ((stacked, bounds),) = _support_partitions(state, [n], DEFAULT_TOLERANCES)[0]
                assert list(bounds) == list(range(spec.support_rank + 1))
                for k in range(spec.support_rank):
                    assert np.array_equal(stacked[:, [k]], spec.eigenvectors[:, [k]])
                checked += 1
        assert checked > 30


class TestSbdMergePinned:
    """The batched merge test changes neither SBD's rounds nor its bits: with
    the per-member reference merge in its place, one round at a time, SBD
    returns the same blocks bit for bit and leaves the generator in the same
    state."""

    @pytest.mark.parametrize("seed", range(5))
    def test_blocks_and_generator_match_reference_merge(self, seed, monkeypatch):
        pinned = sbd_states() + [two_ring_state(p, d) for p, d in ((0.62, 2), (0.75, 9))]
        pinned += [StateTensor(c.dims, c.amps) for c in bench_states.make_cases("degenerate", 11)]
        calls, layouts, generators = [], [], []
        default_rng = np.random.default_rng

        def captured_rng(seed):
            # the generator SBD draws from, so its end state can be compared
            generators.append(default_rng(seed))
            return generators[-1]

        def reference(frames, labels, layout, starts, t_edge):
            # the layout must be the cluster's slices side by side, built
            # here independently, so the reference does not trust it
            assert any(np.array_equal(layout, want) for want in layouts)
            return reference_batch_merge(frames, labels, layout, starts, t_edge, calls)

        tol = DEFAULT_TOLERANCES
        for state in pinned:
            for n in range(state.n_subsystems):
                spec = local_spectrum(state, n, max(tol.t_deg, _GUARD_GAP), tol.t_supp)
                pairs = reference_eigenframe_pair_states(state, [spec], n)
                family, _ = reference_pair_slices(n, pairs)
                spans = [(c[0], min(c[-1] + 1, spec.support_rank)) for c in spec.clusters]
                layouts[:] = [
                    side_by_side(family[:, lo:hi, lo:hi] / spec.eigenvalues[lo:hi].sum())
                    for lo, hi in spans
                    if hi - lo > 1
                ]
                runs = []
                for merge in (_merge_coupled, reference):
                    with monkeypatch.context() as patch:
                        patch.setattr(decomposition, "_merge_coupled", merge)
                        patch.setattr(np.random, "default_rng", captured_rng)
                        patch.setattr(decomposition, "SBD_SEED", seed)
                        generators.clear()
                        ((stacked, bounds),) = _support_partitions(state, [n], tol)[0]
                        parts = [stacked[:, a:b] for a, b in zip(bounds, bounds[1:])]
                        ends = [g.bit_generator.state for g in generators]
                        runs.append((sbd_refine(state, n, tol), parts, ends))
                (blocks, parts, end), (ref_blocks, ref_parts, ref_end) = runs
                # one generator exactly when some cluster needs SBD
                assert len(end) == (1 if layouts else 0) and end == ref_end
                for got, want in ((blocks, ref_blocks), (parts, ref_parts)):
                    assert len(got) == len(want)
                    assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert len(calls) > 300 and max(calls) == 4

    @pytest.mark.parametrize("rounds", [1, 3, 5])
    def test_irreducible_cluster_takes_the_stable_rounds(self, rounds, monkeypatch):
        # subsystem 0 holds two qubits, each maximally entangled with one
        # other party: rho_0 is I/4, one cluster, and the pair slices of
        # (0, 1) and (0, 2) generate all of M_4, so every round's split is
        # merged back and the search stops after one batch of the stable
        # rounds, each on four candidates
        calls = []

        def counting(frames, labels, layout, starts, t_edge):
            calls.append((labels.max(axis=1) + 1).tolist())
            return _merge_coupled(frames, labels, layout, starts, t_edge)

        monkeypatch.setattr(decomposition, "_merge_coupled", counting)
        monkeypatch.setattr(decomposition, "SBD_STABLE_ROUNDS", rounds)
        for seed in range(3):
            monkeypatch.setattr(decomposition, "SBD_SEED", seed)
            calls.clear()
            blocks = sbd_refine(irreducible_state(), 0)
            assert len(blocks) == 1 and blocks[0].shape == (4, 4)
            assert calls == [[4] * rounds]


def irreducible_state():
    """Two qubits on subsystem 0, each in a Bell pair with one other party,
    dressed: one 4-dim cluster that SBD cannot split."""
    core = np.zeros((4, 2, 2))
    for a in range(2):
        for b in range(2):
            core[2 * a + b, a, b] = 0.5
    return dress_state(StateTensor((4, 2, 2), core.reshape(-1)), seed=3)


def cluster_inputs(state, tol=DEFAULT_TOLERANCES):
    """(subsystem, unit-trace slices, group starts) of every cluster that
    ``maximal_decomposition`` hands to ``_split_cluster``."""
    everyone = range(state.n_subsystems)
    t_split = max(tol.t_deg, _GUARD_GAP)
    spectra = [local_spectrum(state, n, t_split, tol.t_supp) for n in everyone]
    stacks = _eigenframe_slices(state, spectra, everyone)
    out = []
    for spec in spectra:
        family, starts = stacks[spec.subsystem]
        for c in spec.clusters:
            lo, hi = c[0], min(c[-1] + 1, spec.support_rank)
            if hi - lo > 1:
                slices = family[:, lo:hi, lo:hi] / spec.eigenvalues[lo:hi].sum()
                out.append((spec.subsystem, slices, starts))
    return out


@pytest.mark.parametrize("workload, imported", [("nondegenerate", False), ("degenerate", True)])
def test_only_sbd_imports_numpy_random(workload, imported, tmp_path):
    # the SBD generator is built at the first cluster that needs SBD, so a
    # decompose that takes every support apart along eigenvectors never
    # imports numpy.random
    state, report = tmp_path / "state.json", tmp_path / "report.json"
    state.write_text(bench_states.state_json(bench_states.make_cases(workload, 0)[0]))
    script = (
        "import sys\n"
        "from lodecomp import cli\n"
        "before = 'numpy.random' in sys.modules\n"
        f"assert cli.main(['decompose', {str(state)!r}, '-o', {str(report)!r}]) == 0\n"
        "print(before, 'numpy.random' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", str(imported)]


class ScriptedGenerator:
    """Stands in for a numpy Generator: ``standard_normal`` hands out the
    next entries of a fixed script, and every request is recorded."""

    def __init__(self, script):
        self.script, self.used, self.requests = np.asarray(script, dtype=np.float64), 0, []

    def standard_normal(self, size):
        self.requests.append(size)
        self.used += size
        assert self.used <= len(self.script)
        return self.script[self.used - size:self.used].copy()


class TestSbdBatchedAgainstSequential:
    """The batched rounds against the one-round-at-a-time loop they replaced
    (``reference_split_cluster``): the same draws, stopping rule, round cap
    and generator state, and the same blocks up to rounding."""

    @pytest.mark.parametrize("seed", range(5))
    def test_same_blocks_and_generator_as_sequential(self, seed):
        states = sbd_states() + [two_ring_state(p, d) for p, d in ((0.62, 2), (0.75, 9))]
        for workload_seed in (0, 1, 2, 3, 4, 11):
            cases = bench_states.make_cases("degenerate", workload_seed)
            states += [StateTensor(c.dims, c.amps) for c in cases]
        tol = DEFAULT_TOLERANCES
        checked = split = 0
        for state in states:
            for n, slices, starts in cluster_inputs(state):
                runs = []
                for split_cluster in (_split_cluster, reference_split_cluster):
                    rng = np.random.default_rng(seed)
                    blocks = split_cluster(slices, starts, tol, rng, n)
                    runs.append((blocks, rng.bit_generator.state))
                (blocks, end), (want, want_end) = runs
                assert end == want_end and len(blocks) == len(want)
                for b, w in zip(blocks, want):
                    assert np.max(np.abs(b @ b.conj().T - w @ w.conj().T)) <= 1e-12
                checked += 1
                split += len(blocks) > 1
        assert checked >= 200 and split >= 20

    def test_unsplit_cluster_keeps_the_eigenvectors(self, monkeypatch):
        # a cluster that no round splits comes back as the identity on the
        # cluster, so its support columns are rho_n's eigenvectors and the
        # degenerate workload's branches do not depend on the seed at all
        for c in bench_states.make_cases("degenerate", 5):
            state = StateTensor(c.dims, c.amps)
            results = []
            for seed in range(5):
                monkeypatch.setattr(decomposition, "SBD_SEED", seed)
                results.append(maximal_decomposition(state).decomposition)
            for d in results[1:]:
                assert np.array_equal(d.weights, results[0].weights)
                for b, b0 in zip(d.branches, results[0].branches):
                    assert all(np.array_equal(x, y) for x, y in zip(b.supports, b0.supports))
            for n in range(state.n_subsystems):
                spec = local_spectrum(state, n)
                columns = np.hstack([b.supports[n] for b in results[0].branches])
                assert np.array_equal(columns, spec.support_basis)

    def test_split_in_second_round_of_a_batch(self):
        # round 1 draws zero coefficients, so X = 0 has one eigenvalue
        # cluster and nothing splits; round 2 splits a two-ring cluster that
        # holds both rings (forced: SBD on the whole support).  The batch
        # keeps round 2, and round 3's draw waits for the next batch
        state = two_ring_state(0.7, seed=1)
        spec = local_spectrum(state, 0)
        family, starts = plain_slices(state)[0]
        support = spec.support_basis
        slices = support.conj().T @ family @ support
        count = len(slices)
        draws = np.random.default_rng(5).standard_normal(2 * count * 40)
        draws[: 2 * count] = 0.0
        scripted = ScriptedGenerator(draws)
        blocks = _split_cluster(slices, starts, DEFAULT_TOLERANCES, scripted, 0)
        sequential = ScriptedGenerator(draws)
        want = reference_split_cluster(slices, starts, DEFAULT_TOLERANCES, sequential, 0)
        assert len(blocks) == len(want) > 1 and scripted.used == sequential.used
        assert scripted.requests[:2] == [2 * count * 3, 2 * count * 2]
        for b, w in zip(blocks, want):
            assert np.max(np.abs(b @ b.conj().T - w @ w.conj().T)) <= 1e-12

    def test_unreachable_stable_rounds_raise_with_capped_batches(self, monkeypatch):
        # 10**6 stable rounds never come within the cap of 50 rounds per
        # dimension: both loops raise after drawing exactly that many rounds,
        # and the batched one draws them in one batch of the rounds left, not
        # of the 10**6 rounds it asks for
        (n, slices, starts), = cluster_inputs(irreducible_state())[:1]
        monkeypatch.setattr(decomposition, "SBD_STABLE_ROUNDS", 10**6)
        count, size = slices.shape[:2]
        draws = np.random.default_rng(0).standard_normal(2 * count * 50 * size)
        ends = []
        for split in (_split_cluster, reference_split_cluster):
            scripted = ScriptedGenerator(draws)
            with pytest.raises(InternalConsistencyError, match="failed to stabilize"):
                split(slices, starts, DEFAULT_TOLERANCES, scripted, n)
            ends.append(scripted.used)
            if split is _split_cluster:
                assert scripted.requests == [len(draws)]
        assert ends == [len(draws)] * 2

    @pytest.mark.parametrize("stable_rounds", [1, 3, 7])
    def test_batches_capped_below_the_stable_rounds(self, stable_rounds, monkeypatch):
        # with room for two rounds per batch, a search carries its stable
        # count across batches and still draws what the sequential loop draws
        monkeypatch.setattr(decomposition, "SBD_STABLE_ROUNDS", stable_rounds)
        states = [two_ring_state(0.7, seed=1), dress_state(ghz_state(3, 4), seed=5)]
        for state in states + [irreducible_state()]:
            for n, slices, starts in cluster_inputs(state):
                # the layout holds as many entries as the slices
                monkeypatch.setattr(decomposition, "_SBD_BATCH_ENTRIES", 2 * slices.size)
                runs = []
                for split in (_split_cluster, reference_split_cluster):
                    rng = np.random.default_rng(4)
                    blocks = split(slices, starts, DEFAULT_TOLERANCES, rng, n)
                    runs.append((blocks, rng.bit_generator.state))
                (blocks, end), (want, want_end) = runs
                assert end == want_end and len(blocks) == len(want)
                for b, w in zip(blocks, want):
                    assert np.max(np.abs(b @ b.conj().T - w @ w.conj().T)) <= 1e-12


def sbd_states():
    """States whose clusters SBD splits: the catalog, dressed states, two-ring
    states and a GHZ state with a 1e-13 admixture near the slices' noise."""
    states = [s for s in catalog_and_dressed_states() if s.n_subsystems > 2]
    states += [two_ring_state(0.7, seed=1), dress_state(ghz_state(3, 4), seed=5)]
    noise = random_state((3, 3, 3), seed=8).amps
    states.append(StateTensor((3, 3, 3), ghz_state(3, 3).amps + 1e-13 * noise))
    return states


def random_split(rng, basis):
    """The columns of ``basis``, turned by a Haar unitary and cut into parts."""
    size = basis.shape[1]
    frame = basis @ haar_unitary(size, rng)
    n_parts = int(rng.integers(1, size + 1))
    cuts = np.sort(rng.choice(np.arange(1, size), n_parts - 1, replace=False))
    return np.split(frame, cuts, axis=1)


def part_groups(parts, merged):
    """Which parts each merged block spans, as index tuples."""
    return [
        tuple(i for i, part in enumerate(parts) if np.linalg.norm(block.conj().T @ part) > 0.5)
        for block in merged
    ]


# SBD takes each block as an eigenvalue cluster of a random combination X of
# the family, so a block is accurate to about eps ||X|| / gap, where gap is
# the distance from the block's eigenvalues of X to the nearest one outside
# it.  Two-ring states, whose branches have distinct weights, now meet their
# exact projectors within about 1e-15; the SBD still splits dressed GHZ
# clusters, whose blocks on 3x4 and 3x8 (dressings 0-39, seeds 0-4) lie a
# median 5.6e-15 and at worst 9.1e-13 (3x8, dressing 21, seed 2) from the
# exact ones.  So seed independence of the supports is asserted at 1e-9, and
# of the weights at 1e-12.
SBD_PROJ_ATOL = 1e-9
SBD_WEIGHT_ATOL = 1e-12


def same_branches(d1, d2):
    """Pair up the branches of two decompositions by weight and projectors."""
    assert d1.n_branches == d2.n_branches
    unused = list(d2.branches)
    for b1 in d1.branches:
        p1 = support_projectors(b1)
        for b2 in unused:
            p2 = support_projectors(b2)
            if abs(b1.weight - b2.weight) <= SBD_WEIGHT_ATOL and all(
                np.max(np.abs(p - q)) <= SBD_PROJ_ATOL for p, q in zip(p1, p2)
            ):
                unused.remove(b2)
                break
        else:
            raise AssertionError(f"no partner for branch of weight {b1.weight}")


def results_over_sbd_seeds(state, seeds=range(5), tol=DEFAULT_TOLERANCES):
    """``maximal_decomposition(state, tol)`` with ``SBD_SEED`` set to each seed."""
    results = []
    with pytest.MonkeyPatch.context() as patch:
        for seed in seeds:
            patch.setattr(decomposition, "SBD_SEED", seed)
            results.append(maximal_decomposition(state, tol))
    return results


def split_gap_states():
    """The states of the t_deg sweep, with their planted branch counts."""
    w = np.linspace(2, 1, 12)
    case = bench_states.make_cases("degenerate", 5)[0]
    return {
        "z-12x12x12": (dress_state(z_state(w / w.sum(), 3, (12, 12, 12)), 2), 12),
        "ghz-3x4": (dress_state(ghz_state(3, 4), 0), 4),
        "z-3": (dress_state(z_state((0.5, 0.3, 0.2)), 0), 3),
        "degenerate": (StateTensor(case.dims, case.amps), 2),
    }


# t_deg values from the default up to one that joins every local spectrum
# into a single cluster; at the default, SBD_SPLIT_GAP equals t_deg
SWEEP_T_DEG = (1e-8, 1e-4, 0.03, 0.1, 0.2, 0.5, 0.9)
METAMORPHIC_TOLERANCES = [DEFAULT_TOLERANCES, Tolerances(t_deg=0.1)]


class TestSbdMetamorphic:
    """Block-sbd content does not depend on the SBD draws, nor on t_deg:
    t_deg only chooses which eigenvalues share a cluster, and SBD cuts its
    draws at the fixed SBD_SPLIT_GAP.  On a non-degenerate spectrum forced
    SBD finds the eigenvector lines."""

    @pytest.mark.parametrize("name", sorted(split_gap_states()))
    def test_t_deg_sweep_keeps_the_default_answer(self, name):
        # a t_deg above a draw's gaps once cut none of them, so joined blocks
        # looked stable and the count depended on SBD_SEED
        state, count = split_gap_states()[name]
        want = maximal_decomposition(state).decomposition
        assert want.n_branches == count
        for t_deg in SWEEP_T_DEG:
            for result in results_over_sbd_seeds(state, tol=Tolerances(t_deg=t_deg)):
                same_branches(want, result.decomposition)

    @pytest.mark.parametrize("tol", METAMORPHIC_TOLERANCES, ids=["default", "t_deg=0.1"])
    @settings(max_examples=4, deadline=None)
    @given(st.floats(min_value=0.55, max_value=0.85), st.integers(min_value=0, max_value=10**6))
    def test_two_ring_seed_independent(self, tol, p, dressing):
        state = two_ring_state(p, dressing)
        results = results_over_sbd_seeds(state, tol=tol)
        assert all(r.diagnostics.path == "block-sbd" for r in results)
        assert results[0].decomposition.n_branches == 2
        for r in results[1:]:
            same_branches(results[0].decomposition, r.decomposition)

    @pytest.mark.parametrize("tol", METAMORPHIC_TOLERANCES, ids=["default", "t_deg=0.1"])
    @pytest.mark.parametrize("dim", [4, 8])
    @pytest.mark.parametrize("dressing", [0, 3])
    def test_dressed_ghz_seed_independent(self, dim, dressing, tol):
        state = dress_state(ghz_state(3, dim), seed=dressing)
        results = results_over_sbd_seeds(state, tol=tol)
        assert results[0].decomposition.n_branches == dim
        for r in results[1:]:
            same_branches(results[0].decomposition, r.decomposition)

    @pytest.mark.parametrize("tol", METAMORPHIC_TOLERANCES, ids=["default", "t_deg=0.1"])
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
    def test_forced_sbd_finds_eigenvector_lines(self, tol, dressing, seed):
        # sbd_refine returns these lines without SBD, so SBD is forced on
        # the whole support as one cluster
        state = dress_state(z_state((0.45, 0.3, 0.15, 0.1), dims=(4, 4, 4)), seed=dressing)
        slices = plain_slices(state)
        rng = np.random.default_rng(seed)
        for n in range(3):
            spec = local_spectrum(state, n)
            assert not spec.is_support_degenerate
            family, starts = slices[n]
            support = spec.support_basis
            compressed = support.conj().T @ family @ support
            blocks = _split_cluster(compressed, starts, tol, rng, n)
            parts = [support @ block for block in blocks]
            assert len(parts) == spec.support_rank == 4
            lines = [np.outer(v, v.conj()) for v in spec.support_basis.T]
            for part in parts:
                assert part.shape == (4, 1)
                proj = part @ part.conj().T
                assert min(np.max(np.abs(proj - line)) for line in lines) <= SBD_PROJ_ATOL


class TestAssemble:
    def test_ghz_from_computational_blocks(self):
        d = assemble_branches(ghz_state(), [computational_blocks(2)] * 3)
        assert d.n_branches == 2
        assert verify_lo(d).passed

    def test_single_block_gives_trivial(self):
        w = w_state()
        blocks = [[local_spectrum(w, n).support_basis] for n in range(3)]
        d = assemble_branches(w, blocks)
        assert d.n_branches == 1

    def test_bipartite_rejected(self):
        bell = StateTensor((2, 2), np.array([1, 0, 0, 1.0]))
        with pytest.raises(UnsupportedOperationError):
            assemble_branches(bell, [computational_blocks(2)] * 2)

    def test_no_tolerance_loosens_the_verdict(self):
        # two eigenvector lines turned by 1e-6 rad make the extraction
        # subsystem-dependent by 8.9e-7, far above the 4e-9 verify_lo allows;
        # Tolerances(t_nindep=1.0) once let assembly return these 3 branches
        state = dress_state(z_state((0.5, 0.3, 0.2)), 4)
        with pytest.raises(InternalConsistencyError, match="FAIL  projector_identity") as caught:
            assemble_branches(state, turned_partition(state, 0, 1e-6))
        check = projector_identity(caught.value.report)
        assert not check.passed and check.residual == pytest.approx(8.944e-7, rel=1e-3)
        # the fixed thresholds are constants, not fields a caller could loosen
        for field, value in (("t_nindep", 1.0), ("w_min", 0.5), ("sbd_stable_rounds", 1)):
            with pytest.raises(TypeError, match=field):
                Tolerances(**{field: value})

    def test_verify_lo_takes_no_tolerances(self):
        # the contract judges at fixed thresholds: no caller passes its own
        d = maximal_decomposition(z_state((0.5, 0.3, 0.2))).decomposition
        for call in (lambda: verify_lo(d, DEFAULT_TOLERANCES), lambda: verify_lo(d, tol=DEFAULT_TOLERANCES)):
            with pytest.raises(TypeError):
                call()
        assert verify_lo(d).passed


class TestDiagnostics:
    def test_seed_recorded(self):
        assert maximal_decomposition(ghz_state()).diagnostics.seed == decomposition.SBD_SEED == 0
        for seed, result in enumerate(results_over_sbd_seeds(ghz_state())):
            assert result.diagnostics.seed == seed
            assert result.diagnostics.degenerate_subsystems == (0, 1, 2)
            assert not result.diagnostics.non_unique

    def test_weights_sorted(self):
        result = maximal_decomposition(z_state((0.2, 0.3, 0.5)))
        weights = result.decomposition.weights.tolist()
        assert weights == sorted(weights, reverse=True)

    def test_edge_margins_recorded(self):
        result = maximal_decomposition(z_state((0.5, 0.3, 0.2)))
        assert result.diagnostics.min_accepted_edge > 0.0
        assert result.diagnostics.max_rejected_edge < result.diagnostics.tolerances.t_edge * 10

    def test_n_independence_small(self):
        result = maximal_decomposition(dress_state(ghz_state(), seed=3))
        assert result.diagnostics.n_independence_residual <= 1e-8

    def test_bipartite_path(self):
        state = random_state((3, 4), seed=21)
        result = maximal_decomposition(state)
        assert result.diagnostics.path == "schmidt"
        assert result.diagnostics.seed is None

    def test_verification_attached(self):
        result = maximal_decomposition(v_state())
        assert result.verification.passed

    @pytest.mark.parametrize("workload", [*sorted(bench_states.WORKLOADS), "schmidt"])
    def test_n_independence_residual_is_the_verified_one(self, workload, tmp_path, capsys):
        # the report's residual is verify_lo's projector_identity residual,
        # which `lodecomp verify` recomputes from the report's supports
        state, report = tmp_path / "state.json", tmp_path / "report.json"
        if workload == "schmidt":
            StateFile.from_state(random_state((3, 4), seed=21)).write(state)
        else:
            state.write_text(bench_states.state_json(bench_states.make_cases(workload, 0)[0]))
        assert cli.main(["decompose", str(state), "--format", "json", "-o", str(report)]) == 0
        residual = json.loads(report.read_text())["diagnostics"]["n_independence_residual"]
        assert cli.main(["verify", str(state), str(report)]) == 0
        printed = re.search(r"pass  projector_identity: residual (\S+) \(tol 4e-09\)\n",
                            capsys.readouterr().out).group(1)
        assert printed == f"{residual:.3e}"


class TestBipartite:
    """N = 2: one branch per squared singular value of the amplitude matrix."""

    def test_bell_two_equal_branches(self):
        result = maximal_decomposition(StateTensor((2, 2), np.array([1, 0, 0, 1.0])))
        assert np.allclose(result.decomposition.weights, [0.5, 0.5])
        assert result.diagnostics.non_unique
        assert result.diagnostics.degenerate_subsystems == (0, 1)

    def test_three_term_weights(self):
        # eigenvalues of [[2, 1], [1, 1]]/3, the reduced state of (|00>+|01>+|10>)/sqrt(3)
        result = maximal_decomposition(StateTensor((2, 2), np.array([1, 1, 1, 0.0])))
        want = ((3 + np.sqrt(5)) / 6, (3 - np.sqrt(5)) / 6)
        assert np.allclose(result.decomposition.weights, want)
        assert not result.diagnostics.non_unique

    def test_weights_descending(self):
        weights = maximal_decomposition(random_state((4, 4), seed=13)).decomposition.weights
        assert weights.size == 4 and np.all(np.diff(weights) <= 0)

    def test_rank_deficient_keeps_the_support(self):
        # a 3x4 amplitude matrix of rank 2: the third singular value is 0
        result = maximal_decomposition(z_state((0.6, 0.4), dims=(3, 4)))
        assert np.allclose(result.decomposition.weights, [0.6, 0.4])
        assert [b.shape for b in result.decomposition.branches[0].supports] == [(3, 1), (4, 1)]

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 4), (2, 5), (5, 2)], ids=str)
    def test_branches_are_the_schmidt_terms(self, dims):
        # reference: numpy's singular values; the branches must sum back to the state
        state = random_state(dims, seed=11)
        d = maximal_decomposition(state).decomposition
        want = np.linalg.svd(state.as_array(), compute_uv=False) ** 2
        assert np.allclose(d.weights, want, atol=1e-12)
        total = sum(np.sqrt(br.weight) * br.vector for br in d.branches)
        assert np.allclose(total, state.amps, atol=1e-12)
        for br in d.branches:
            assert br.support_ranks == (1, 1)
            product = np.kron(br.supports[0][:, 0], br.supports[1][:, 0])
            assert np.allclose(br.vector, product, atol=1e-12)

    def test_deterministic_supports(self):
        state = random_state((3, 3), seed=15)
        a, b = (maximal_decomposition(state).decomposition for _ in range(2))
        for x, y in zip(a.branches, b.branches):
            assert all(np.array_equal(p, q) for p, q in zip(x.supports, y.supports))

    @pytest.mark.parametrize("weights, non_unique", [
        ((0.98, 0.01 + 2.5e-9, 0.01 - 2.5e-9), True),  # weights 5e-9 apart
        ((0.5 + 6e-9, 0.5 - 6e-9), False),  # weights 1.2e-8 apart
    ], ids=["within-t_deg", "beyond-t_deg"])
    def test_t_deg_judges_weights(self, weights, non_unique):
        # t_deg = 1e-8 is a gap between weights, not between their square roots
        diagnostics = maximal_decomposition(z_state(weights, 2)).diagnostics
        assert diagnostics.non_unique is non_unique
        assert diagnostics.degenerate_subsystems == ((0, 1) if non_unique else ())


class TestEmptySupport:
    """A t_supp at or above a subsystem's largest eigenvalue leaves it no
    support: invalid input, named before any further work."""

    @pytest.mark.parametrize("state, message", [
        (ghz_state(), "t_supp 0.9 leaves subsystem 0 no support: its largest eigenvalue is 0.5"),
        (u_state(), "t_supp 0.9 leaves subsystem 0 no support: its largest eigenvalue is 0.5"),
        (ghz_state(2, 3), "t_supp 0.9 leaves subsystems [0] and [1] no support: "
                          "the largest squared Schmidt coefficient is 0.333333"),
    ], ids=["ghz", "u", "schmidt"])
    def test_maximal_decomposition(self, state, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            maximal_decomposition(state, Tolerances(t_supp=0.9))

    def test_partial_empty_support(self):
        # u's third subsystem keeps its support; the first two do not
        tol = Tolerances(t_supp=0.6)
        message = "t_supp 0.6 leaves subsystem 0 no support: its largest eigenvalue is 0.5"
        for call in (
            lambda: maximal_decomposition(u_state(), tol),
            lambda: sbd_refine(u_state(), 0, tol),
            lambda: trivial_decomposition(u_state(), tol),
            lambda: assemble_branches(u_state(), [computational_blocks(2)] * 3, tol),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                call()
        with pytest.raises(ValueError, match=re.escape("leaves subsystem 1 no support")):
            sbd_refine(u_state(), 1, tol)
        assert [b.shape for b in sbd_refine(u_state(), 2, tol)] == [(2, 1)]
