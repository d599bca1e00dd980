import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodecomp.catalog import dress_state, ghz_state, random_state, u_state, w_state, z_state
from lodecomp.spectral import cluster_eigenvalues, fix_phases, local_spectrum
from lodecomp.tensor import partial_trace


class TestClustering:
    def test_distinct_values_stay_apart(self):
        assert cluster_eigenvalues([0.5, 0.3, 0.2], 1e-8) == [[0], [1], [2]]

    def test_close_values_merge(self):
        got = cluster_eigenvalues([0.5, 0.25 + 1e-10, 0.25], 1e-8)
        assert got == [[0], [1, 2]]

    def test_chain_merges_transitively(self):
        # gaps each below threshold chain into one cluster
        got = cluster_eigenvalues([1.0, 1.0 - 1e-9, 1.0 - 2e-9], 1e-8)
        assert got == [[0, 1, 2]]

    def test_requires_descending(self):
        with pytest.raises(ValueError):
            cluster_eigenvalues([0.2, 0.5], 1e-8)

    def test_boundary_gap(self):
        # a gap exactly at t_deg merges; just above stays split
        assert len(cluster_eigenvalues([0.5, 0.5 - 1e-8], 1e-8)) == 1
        assert len(cluster_eigenvalues([0.5, 0.5 - 1.1e-8], 1e-8)) == 2


def reference_cluster_eigenvalues(values, t_deg):
    """The per-value loop that ``cluster_eigenvalues`` replaced."""
    values = np.asarray(values, dtype=np.float64)
    if values.size and np.any(np.diff(values) > 1e-15):
        raise ValueError("values must be sorted in descending order")
    clusters = []
    for i in range(values.size):
        if i > 0 and values[i - 1] - values[i] <= t_deg:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


# gaps near t_deg on both sides, exact ties, and steps up that the sortedness
# check must catch (above 1e-15) or let pass (at most 1e-15)
GAPS = st.one_of(
    st.floats(min_value=0, max_value=3e-8),
    st.sampled_from([0.0, 1e-8, 1e-8 * (1 + 1e-15), 0.1, -1e-15, -1e-14, -0.2]),
)


class TestClusteringAgainstLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.lists(GAPS, max_size=12),
        st.sampled_from([1e-8, 1e-12, 0.05]),
    )
    def test_same_clusters_and_errors(self, start, gaps, t_deg):
        values = start - np.concatenate([[0.0], np.cumsum(gaps)]) if gaps else np.array([start])
        got = outcome(cluster_eigenvalues, values, t_deg)
        assert got == outcome(reference_cluster_eigenvalues, values, t_deg)
        assert got == outcome(cluster_eigenvalues, values.tolist(), t_deg)

    def test_empty_and_nan(self):
        for values in ([], [0.5, float("nan"), 0.1], [float("nan")] * 3):
            assert cluster_eigenvalues(values, 1e-8) == reference_cluster_eigenvalues(values, 1e-8)


class TestFixPhases:
    def test_largest_entry_real_positive(self):
        cols = np.array([[1j, 0.0], [0.0, -1.0]])
        fixed = fix_phases(cols)
        assert fixed[0, 0] == pytest.approx(1.0)
        assert fixed[1, 1] == pytest.approx(1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        cols = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        once = fix_phases(cols)
        assert np.allclose(fix_phases(once), once)

    def test_preserves_span(self):
        rng = np.random.default_rng(3)
        cols, _ = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        fixed = fix_phases(cols)
        assert np.allclose(np.abs(fixed.conj().T @ cols), np.eye(2), atol=1e-12)


class TestLocalSpectrum:
    def test_w_state_spectrum(self):
        spec = local_spectrum(w_state(), 0)
        assert np.allclose(spec.eigenvalues, [2 / 3, 1 / 3])
        assert spec.support_rank == 2
        assert not spec.is_support_degenerate

    def test_descending(self):
        rng = np.random.default_rng(5)
        state = random_state((3, 3, 3), seed=5)
        spec = local_spectrum(state, 1)
        assert np.all(np.diff(spec.eigenvalues) <= 1e-15)

    def test_support_rank_deficient(self):
        # the third subsystem of |U> is pure
        spec = local_spectrum(u_state(), 2)
        assert spec.support_rank == 1
        assert spec.support_basis.shape == (2, 1)

    def test_ghz_degenerate(self):
        spec = local_spectrum(ghz_state(), 0)
        assert spec.is_support_degenerate
        assert np.allclose(spec.eigenvalues, [0.5, 0.5])

    @pytest.mark.parametrize(
        "state", [ghz_state(), ghz_state(3, 4), dress_state(ghz_state(3, 4), seed=1),
                  z_state((0.3, 0.3, 0.2, 0.2), dims=(4, 4, 4))],
    )
    def test_tied_eigenvalues_in_eighs_order_reversed(self, state):
        # plain ghz has rho_n = diag(1/2, 1/2): exactly equal eigenvalues,
        # among which no sort order is specified; the order is eigh's, reversed
        for n in range(state.n_subsystems):
            vals, vecs = np.linalg.eigh(partial_trace(state, [n]))
            spec = local_spectrum(state, n)
            assert np.array_equal(spec.eigenvalues, vals[::-1])
            assert np.array_equal(spec.eigenvectors, fix_phases(vecs[:, ::-1]))
            assert spec.eigenvalues.flags.c_contiguous and not spec.eigenvalues.flags.writeable

    def test_eigenvectors_diagonalize(self):
        state = random_state((2, 4, 2), seed=9)
        spec = local_spectrum(state, 1)
        from lodecomp.tensor import partial_trace

        rho = partial_trace(state, [1])
        recon = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.allclose(recon, rho, atol=1e-12)
