import numpy as np
import pytest

from lodecomp.catalog import (
    dress_state,
    ghz_state,
    product_state,
    random_state,
    u_state,
    v_state,
    w_state,
    x_state,
    z_state,
)
from lodecomp.decomposition import (
    Branch,
    BranchDecomposition,
    assemble_branches,
    build_correlation_graph,
    coarse_grain,
    common_fine_graining,
    maximal_decomposition,
    sbd_refine,
    trivial_decomposition,
    verify_lo,
)
from lodecomp.errors import InternalConsistencyError, UnsupportedOperationError
from lodecomp.spectral import local_spectrum
from lodecomp.tensor import LocalProjector, StateTensor, flat_index, joint_projection_norm
from lodecomp.tolerances import DEFAULT_TOLERANCES

from util import (
    assert_same_decomposition,
    is_coarse_graining_of,
    reference_projector_identity,
)


def computational_blocks(dim):
    return [np.eye(dim)[:, [k]] for k in range(dim)]


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
        dims = (4, 4, 4)
        amps = np.zeros(64, dtype=complex)
        for k in range(3):
            multi = [0, 0, 0]
            multi[k] = 1
            amps[flat_index(dims, multi)] = np.sqrt(0.6 / 3)
        for k in range(3):
            multi = [2, 2, 2]
            multi[k] = 3
            amps[flat_index(dims, multi)] = np.sqrt(0.4 / 3)
        result = maximal_decomposition(StateTensor(dims, amps))
        assert result.decomposition.n_branches == 2
        assert np.allclose(result.decomposition.weights, [0.6, 0.4], atol=1e-9)
        assert all(b.support_ranks == (2, 2, 2) for b in result.decomposition.branches)


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


class TestVerify:
    def test_passes_on_maximal(self):
        report = verify_lo(maximal_decomposition(ghz_state()).decomposition)
        assert report.passed
        assert report.worst is None

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
            assert new <= DEFAULT_TOLERANCES.t_nindep

    def test_derived_tolerance(self):
        check = projector_identity(verify_lo(maximal_decomposition(ghz_state()).decomposition))
        assert check.tolerance == pytest.approx((DEFAULT_TOLERANCES.t_nindep - 2e-9) / 2)

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
                assert reference_projector_identity(candidate) <= DEFAULT_TOLERANCES.t_nindep
        assert outcomes[0] and not outcomes[-1]


class TestGraphAgainstReference:
    def test_edge_weights_are_joint_projections(self):
        for state in catalog_and_dressed_states():
            if state.n_subsystems == 2:
                continue
            blocks = [sbd_refine(state, n) for n in range(state.n_subsystems)]
            graph = build_correlation_graph(state, blocks)
            accepted = {(a, b): w for a, b, w in graph.edges}
            rejected = []
            for a, na in enumerate(graph.nodes):
                for b in range(a + 1, len(graph.nodes)):
                    nb = graph.nodes[b]
                    if na.subsystem == nb.subsystem:
                        continue
                    want = joint_projection_norm(
                        state,
                        LocalProjector(na.subsystem, na.basis),
                        LocalProjector(nb.subsystem, nb.basis),
                    )
                    if (a, b) in accepted:
                        assert abs(accepted[a, b] - want) <= 1e-12
                    else:
                        rejected.append(want)
            if rejected:
                assert abs(graph.max_rejected_edge - max(rejected)) <= 1e-12


class TestTrivial:
    def test_single_branch(self):
        d = trivial_decomposition(ghz_state())
        assert d.n_branches == 1
        assert verify_lo(d).passed

    def test_supports_cover_state(self):
        d = trivial_decomposition(v_state())
        assert d.branches[0].support_ranks == (2, 4, 2)


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

    def test_partition_validation(self):
        full = maximal_decomposition(ghz_state()).decomposition
        with pytest.raises(ValueError):
            coarse_grain(full, [[0]])
        with pytest.raises(ValueError):
            coarse_grain(full, [[0, 1], [1]])
        with pytest.raises(ValueError):
            coarse_grain(full, [[0, 1, 2]])


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

    def test_state_mismatch_rejected(self):
        d1 = maximal_decomposition(ghz_state()).decomposition
        d2 = maximal_decomposition(w_state()).decomposition
        with pytest.raises(ValueError):
            common_fine_graining(d1, d2)

    def test_bipartite_unsupported(self):
        bell = StateTensor((2, 2), np.array([1, 0, 0, 1.0]))
        d = maximal_decomposition(bell).decomposition
        with pytest.raises(UnsupportedOperationError):
            common_fine_graining(d, d)

    def test_inconsistent_input_detected(self):
        # claim branch supports in the Hadamard basis: the projector products
        # evaluated in the two orders cannot agree
        ghz = ghz_state()
        good = maximal_decomposition(ghz).decomposition
        plus = np.array([[1.0], [1.0]]) / np.sqrt(2)
        minus = np.array([[1.0], [-1.0]]) / np.sqrt(2)
        fake = BranchDecomposition(
            ghz,
            [
                Branch(0.5, good.branches[0].vector, (plus, plus, plus)),
                Branch(0.5, good.branches[1].vector, (minus, minus, minus)),
            ],
        )
        with pytest.raises(InternalConsistencyError):
            common_fine_graining(fake, good)


class TestCorrelationGraph:
    def test_ghz_components(self):
        ghz = ghz_state()
        blocks = [computational_blocks(2) for _ in range(3)]
        graph = build_correlation_graph(ghz, blocks)
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
        graph = build_correlation_graph(w, blocks)
        assert len(graph.components) == 1

    def test_rejects_non_orthonormal_blocks(self):
        ghz = ghz_state()
        bad = [[np.array([[1.0], [1.0]])], [np.eye(2)], [np.eye(2)]]
        with pytest.raises(ValueError, match="orthonormal"):
            build_correlation_graph(ghz, bad)

    def test_rejects_blocks_missing_support(self):
        ghz = ghz_state()
        partial = [[np.array([1.0, 0.0])], computational_blocks(2), computational_blocks(2)]
        with pytest.raises(ValueError, match="span"):
            build_correlation_graph(ghz, partial)

    def test_rejects_blocks_outside_support(self):
        # the third subsystem of |U> is pure, so the full basis overshoots
        blocks = [computational_blocks(2)] * 3
        with pytest.raises(ValueError, match="span"):
            build_correlation_graph(u_state(), blocks)

    def test_wrong_block_count(self):
        with pytest.raises(ValueError):
            build_correlation_graph(ghz_state(), [computational_blocks(2)] * 2)


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

    def test_seed_deterministic(self):
        a = sbd_refine(ghz_state(4, 3), 2, seed=9)
        b = sbd_refine(ghz_state(4, 3), 2, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_seed_independent_subspaces(self):
        a = sbd_refine(z_state((0.5, 0.5)), 0, seed=1)
        b = sbd_refine(z_state((0.5, 0.5)), 0, seed=2)
        pa = sorted(np.round(p @ p.conj().T, 8).real.tolist() for p in a)
        pb = sorted(np.round(p @ p.conj().T, 8).real.tolist() for p in b)
        assert pa == pb

    def test_bipartite_rejected(self):
        bell = StateTensor((2, 2), np.array([1, 0, 0, 1.0]))
        with pytest.raises(UnsupportedOperationError):
            sbd_refine(bell, 0)

    def test_bad_subsystem(self):
        with pytest.raises(ValueError):
            sbd_refine(ghz_state(), 5)


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


class TestDiagnostics:
    def test_seed_recorded(self):
        result = maximal_decomposition(ghz_state(), seed=17)
        assert result.diagnostics.seed == 17
        assert result.diagnostics.degenerate_subsystems == (0, 1, 2)
        assert not result.diagnostics.non_unique

    def test_weights_sorted(self):
        result = maximal_decomposition(z_state((0.2, 0.3, 0.5)))
        assert result.diagnostics.weights == tuple(sorted(result.diagnostics.weights, reverse=True))

    def test_edge_margins_recorded(self):
        result = maximal_decomposition(z_state((0.5, 0.3, 0.2)))
        assert result.diagnostics.min_accepted_edge > 0.0
        assert result.diagnostics.max_rejected_edge < result.diagnostics.tolerances.t_edge * 10

    def test_n_independence_small(self):
        result = maximal_decomposition(dress_state(ghz_state(), seed=3), seed=3)
        assert result.diagnostics.n_independence_residual <= 1e-8

    def test_bipartite_path(self):
        state = random_state((3, 4), seed=21)
        result = maximal_decomposition(state)
        assert result.diagnostics.path == "schmidt"
        assert result.diagnostics.seed is None

    def test_verification_attached(self):
        result = maximal_decomposition(v_state())
        assert result.verification.passed
