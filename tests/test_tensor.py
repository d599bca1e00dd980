import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodecomp.tensor import (
    DensityOperator,
    LocalProjector,
    StateTensor,
    apply_local_projector,
    apply_matrix_at,
    apply_matrix_at_pair,
    flat_index,
    inner_product,
    joint_projection_norm,
    multi_index,
    partial_trace,
    permute_subsystems,
    tensor_compose,
)


def random_amps(rng, size):
    vec = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return vec / np.linalg.norm(vec)


class TestIndexing:
    def test_flat_index_row_major(self):
        # subsystem 0 varies slowest
        assert flat_index((2, 3, 2), (0, 0, 0)) == 0
        assert flat_index((2, 3, 2), (0, 0, 1)) == 1
        assert flat_index((2, 3, 2), (0, 1, 0)) == 2
        assert flat_index((2, 3, 2), (1, 0, 0)) == 6

    def test_multi_index_inverse(self):
        dims = (2, 3, 2)
        for flat in range(12):
            assert flat_index(dims, multi_index(dims, flat)) == flat

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=5),
           st.integers(min_value=0, max_value=10**6))
    def test_round_trip_any_dims(self, dims, raw):
        dims = tuple(dims)
        total = int(np.prod(dims))
        flat = raw % total
        assert flat_index(dims, multi_index(dims, flat)) == flat

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            flat_index((2, 2), (0, 2))
        with pytest.raises(ValueError):
            multi_index((2, 2), 4)


class TestStateTensor:
    def test_normalizes(self):
        st_ = StateTensor((2, 2), [2.0, 0, 0, 0])
        assert np.allclose(st_.amps, [1, 0, 0, 0])

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            StateTensor((2, 2), np.zeros(4))

    def test_rejects_single_subsystem(self):
        with pytest.raises(ValueError):
            StateTensor((4,), np.ones(4))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            StateTensor((2, 2), np.ones(5))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            StateTensor((2, 2), [np.nan, 0, 0, 0])

    def test_amps_read_only(self):
        st_ = StateTensor((2, 2), [1, 0, 0, 0])
        with pytest.raises(ValueError):
            st_.amps[0] = 5.0

    def test_as_array_shape(self):
        st_ = StateTensor((2, 3), np.arange(1, 7))
        assert st_.as_array().shape == (2, 3)
        assert st_.total_dim == 6
        assert st_.n_subsystems == 2


class TestApplyMatrixAt:
    def test_matches_explicit_kron(self):
        rng = np.random.default_rng(3)
        dims = (2, 3, 2)
        amps = random_amps(rng, 12)
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        got = apply_matrix_at(amps, dims, 1, mat)
        full = np.kron(np.kron(np.eye(2), mat), np.eye(2))
        assert np.allclose(got, full @ amps)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=6),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_matches_einsum_any_axis(self, dims, axis, rows, seed):
        # covers both kernels: batched over the leading axes, and the single
        # matmul with the axis moved last (taken when the trailing axes are short)
        rng = np.random.default_rng(seed)
        dims = tuple(dims)
        n = axis % len(dims)
        amps = random_amps(rng, int(np.prod(dims)))
        mat = rng.standard_normal((rows, dims[n])) + 1j * rng.standard_normal((rows, dims[n]))
        got = apply_matrix_at(amps, dims, n, mat)
        pre, post = int(np.prod(dims[:n])), int(np.prod(dims[n + 1:]))
        want = np.einsum("ab,pbq->paq", mat, amps.reshape(pre, dims[n], post)).reshape(-1)
        assert got.shape == want.shape
        assert np.allclose(got, want, atol=1e-13)

    def test_pair_adjacent(self):
        rng = np.random.default_rng(4)
        dims = (2, 3, 2)
        amps = random_amps(rng, 12)
        mat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        got = apply_matrix_at_pair(amps, dims, 0, 1, mat)
        assert np.allclose(got, np.kron(mat, np.eye(2)) @ amps)

    def test_pair_reversed_order(self):
        # the matrix is indexed with the first-listed subsystem slowest,
        # so (m, n) with the transposed matrix must agree with (n, m)
        rng = np.random.default_rng(5)
        dims = (2, 2, 3)
        amps = random_amps(rng, 12)
        mat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = apply_matrix_at_pair(amps, dims, 0, 2, mat)
        swapped = mat.reshape(2, 3, 2, 3).transpose(1, 0, 3, 2).reshape(6, 6)
        b = apply_matrix_at_pair(amps, dims, 2, 0, swapped)
        assert np.allclose(a, b)

    def test_pair_nonadjacent_matches_dense(self):
        rng = np.random.default_rng(6)
        dims = (2, 3, 2)
        amps = random_amps(rng, 12)
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        got = apply_matrix_at_pair(amps, dims, 0, 2, mat)
        # build the dense operator by permuting (0, 2, 1) explicitly
        mat4 = mat.reshape(2, 2, 2, 2)
        dense = np.einsum("acbd,ef->aecbfd", mat4, np.eye(3)).reshape(12, 12)
        assert np.allclose(got, dense @ amps)


class TestPartialTrace:
    def test_trace_one_and_hermitian(self):
        rng = np.random.default_rng(7)
        state = StateTensor((2, 3, 2), random_amps(rng, 12))
        rho = partial_trace(state, [1])
        assert rho.matrix.shape == (3, 3)
        assert abs(np.trace(rho.matrix) - 1) < 1e-12
        assert np.allclose(rho.matrix, rho.matrix.conj().T)

    def test_product_state_is_pure(self):
        rng = np.random.default_rng(8)
        a = random_amps(rng, 2)
        b = random_amps(rng, 6)
        state = StateTensor((2, 3, 2), np.kron(a, b))
        rho = partial_trace(state, [0]).matrix
        assert abs(np.trace(rho @ rho).real - 1) < 1e-12

    def test_bell_half_is_maximally_mixed(self):
        bell = StateTensor((2, 2), np.array([1, 0, 0, 1.0]) / np.sqrt(2))
        rho = partial_trace(bell, [0]).matrix
        assert np.allclose(rho, np.eye(2) / 2)

    def test_pair_ordering(self):
        # keep-set comes back in ascending subsystem order
        rng = np.random.default_rng(9)
        state = StateTensor((2, 3, 2), random_amps(rng, 12))
        rho = partial_trace(state, [2, 0])
        assert rho.subsystems == (0, 2)
        assert rho.matrix.shape == (4, 4)

    def test_validation(self):
        state = StateTensor((2, 2), [1, 0, 0, 0])
        with pytest.raises(ValueError):
            partial_trace(state, [])
        with pytest.raises(ValueError):
            partial_trace(state, [0, 1])

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_purity_bounds(self, seed):
        rng = np.random.default_rng(seed)
        state = StateTensor((2, 2, 3), random_amps(rng, 12))
        rho = partial_trace(state, [2]).matrix
        purity = float(np.trace(rho @ rho).real)
        assert 1 / 3 - 1e-12 <= purity <= 1 + 1e-12


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityOperator([0], np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityOperator([0], np.eye(2))


class TestProjectors:
    def test_vector_promoted_to_column(self):
        proj = LocalProjector(0, np.array([1.0, 0.0]))
        assert proj.basis.shape == (2, 1)
        assert proj.rank == 1

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            LocalProjector(0, np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_apply_weight(self):
        ghz = StateTensor((2, 2), np.array([1, 0, 0, 1.0]) / np.sqrt(2))
        vec, weight = apply_local_projector(ghz, LocalProjector(0, np.array([1.0, 0.0])))
        assert abs(weight - 0.5) < 1e-12
        assert np.allclose(vec, [1 / np.sqrt(2), 0, 0, 0])

    def test_joint_projection_symmetric(self):
        rng = np.random.default_rng(11)
        state = StateTensor((2, 2, 2), random_amps(rng, 8))
        p = LocalProjector(0, np.array([1.0, 0.0]))
        q = LocalProjector(2, np.array([0.0, 1.0]))
        assert abs(joint_projection_norm(state, p, q) - joint_projection_norm(state, q, p)) < 1e-14

    def test_joint_projection_same_subsystem_rejected(self):
        state = StateTensor((2, 2), [1, 0, 0, 0])
        p = LocalProjector(0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            joint_projection_norm(state, p, p)

    def test_ghz_diagonal_vs_cross(self):
        ghz = StateTensor((2, 2, 2), np.array([1, 0, 0, 0, 0, 0, 0, 1.0]) / np.sqrt(2))
        p0 = LocalProjector(0, np.array([1.0, 0.0]))
        q0 = LocalProjector(1, np.array([1.0, 0.0]))
        q1 = LocalProjector(1, np.array([0.0, 1.0]))
        assert abs(joint_projection_norm(ghz, p0, q0) - 0.5) < 1e-12
        assert joint_projection_norm(ghz, p0, q1) < 1e-12


class TestComposition:
    def test_inner_product(self):
        a = StateTensor((2, 2), [1, 0, 0, 0])
        b = StateTensor((2, 2), np.array([1, 0, 0, 1.0]) / np.sqrt(2))
        assert abs(inner_product(a, b) - 1 / np.sqrt(2)) < 1e-12
        with pytest.raises(ValueError):
            inner_product(a, StateTensor((2, 2, 2), np.ones(8)))

    def test_tensor_compose(self):
        a = StateTensor((2, 2), [1, 0, 0, 0])
        b = StateTensor((3, 2), np.eye(6)[4])
        c = tensor_compose(a, b)
        assert c.dims == (2, 2, 3, 2)
        assert np.allclose(c.amps, np.kron(a.amps, b.amps))

    def test_permute_basis_state(self):
        dims = (2, 3, 2)
        amps = np.zeros(12)
        amps[flat_index(dims, (1, 2, 0))] = 1.0
        state = StateTensor(dims, amps)
        out = permute_subsystems(state, (2, 0, 1))
        # position k of the output holds old subsystem perm[k]
        assert out.dims == (2, 2, 3)
        assert out.amps[flat_index(out.dims, (0, 1, 2))] == 1.0

    def test_permute_round_trip(self):
        rng = np.random.default_rng(13)
        state = StateTensor((2, 3, 2), random_amps(rng, 12))
        out = permute_subsystems(permute_subsystems(state, (1, 2, 0)), (2, 0, 1))
        assert np.allclose(out.amps, state.amps)

    def test_permute_validation(self):
        state = StateTensor((2, 2), [1, 0, 0, 0])
        with pytest.raises(ValueError):
            permute_subsystems(state, (0, 0))
