import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodecomp.tensor import (
    StateTensor,
    apply_matrix_at,
    basis_stack,
    partial_trace,
    project_supports,
)
from lodecomp.spectral import local_spectrum

from util import apply_pairwise_unitary, permute_subsystems, tensor_compose  # and bench/ on the path
import states as bench_states  # noqa: E402
from lodecomp.catalog import (  # noqa: E402
    StateSpec,
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


def random_amps(rng, size):
    vec = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return vec / np.linalg.norm(vec)


class TestIndexing:
    """The row-major layout, through numpy's own index functions."""

    def test_flat_index_row_major(self):
        # subsystem 0 varies slowest
        assert np.ravel_multi_index((0, 0, 0), (2, 3, 2)) == 0
        assert np.ravel_multi_index((0, 0, 1), (2, 3, 2)) == 1
        assert np.ravel_multi_index((0, 1, 0), (2, 3, 2)) == 2
        assert np.ravel_multi_index((1, 0, 0), (2, 3, 2)) == 6
        state = StateTensor((2, 3, 2), np.arange(1, 13))
        assert state.as_array()[1, 2, 0] == state.amps[np.ravel_multi_index((1, 2, 0), (2, 3, 2))]

    def test_multi_index_inverse(self):
        dims = (2, 3, 2)
        for flat in range(12):
            assert np.ravel_multi_index(np.unravel_index(flat, dims), dims) == flat

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=5),
           st.integers(min_value=0, max_value=10**6))
    def test_round_trip_any_dims(self, dims, raw):
        dims = tuple(dims)
        flat = raw % int(np.prod(dims))
        multi = np.unravel_index(flat, dims)
        assert np.ravel_multi_index(multi, dims) == flat
        amps = np.zeros(dims)
        amps[multi] = 1.0
        assert np.flatnonzero(amps.reshape(-1)).tolist() == [flat]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            np.ravel_multi_index((0, 2), (2, 2))
        with pytest.raises(ValueError):
            np.unravel_index(4, (2, 2))


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

    def test_rejects_matrix_amplitudes(self):
        with pytest.raises(ValueError, match=re.escape(
                "amplitude data must be one-dimensional, got shape (2, 2)")):
            StateTensor((2, 2), np.ones((2, 2)))

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError, match=re.escape(
                "subsystem dimensions must be >= 1, got (0, 2)")):
            StateTensor((0, 2), [])

    def test_normalizes_amplitudes_whose_squares_overflow(self):
        # |1e300|^2 overflows: this Bell state used to normalize to zero, with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bell = StateTensor((2, 2), [1e300, 0, 0, 1e300])
        assert np.allclose(bell.amps, [2**-0.5, 0, 0, 2**-0.5], rtol=0, atol=1e-15)
        # parts near the float maximum, whose modulus overflows as well
        edge = StateTensor((2, 2), [1.5e308 + 1.5e308j, 0, -1e308, 0])
        want = np.array([1.5 + 1.5j, 0, -1, 0]) / np.sqrt(5.5)
        assert np.allclose(edge.amps, want, rtol=0, atol=1e-15)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=-10, max_value=150))
    @settings(max_examples=60, deadline=None)
    def test_normalization_bits_unchanged_below_overflow(self, seed, exponent):
        # every state whose norm is finite is divided by it, as before the overflow guard
        rng = np.random.default_rng(seed)
        amps = (rng.standard_normal(12) + 1j * rng.standard_normal(12)) * 10.0**exponent
        state = StateTensor((2, 3, 2), amps)
        assert state.amps.tobytes() == (amps / float(np.linalg.norm(amps))).tobytes()

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

    def test_rejects_a_matrix_of_the_wrong_width(self):
        with pytest.raises(ValueError, match="matrix acts on dimension 3, subsystem 0 has 2"):
            apply_matrix_at(np.ones(4, dtype=np.complex128), (2, 2), 0, np.eye(3))

    # the pair route: apply_pairwise_unitary against dense operators

    def test_pair_adjacent(self):
        rng = np.random.default_rng(4)
        state = StateTensor((2, 3, 2), random_amps(rng, 12))
        mat = haar_unitary(6, rng)
        got = apply_pairwise_unitary(state, 0, 1, mat)
        assert np.allclose(got.amps, np.kron(mat, np.eye(2)) @ state.amps)

    def test_pair_reversed_order(self):
        # the matrix is indexed with the first-listed subsystem slowest,
        # so (m, n) with the transposed matrix must agree with (n, m)
        rng = np.random.default_rng(5)
        state = StateTensor((2, 2, 3), random_amps(rng, 12))
        mat = haar_unitary(6, rng)
        a = apply_pairwise_unitary(state, 0, 2, mat)
        swapped = mat.reshape(2, 3, 2, 3).transpose(1, 0, 3, 2).reshape(6, 6)
        b = apply_pairwise_unitary(state, 2, 0, swapped)
        assert np.allclose(a.amps, b.amps)

    def test_pair_nonadjacent_matches_dense(self):
        rng = np.random.default_rng(6)
        state = StateTensor((2, 3, 2), random_amps(rng, 12))
        mat = haar_unitary(4, rng)
        got = apply_pairwise_unitary(state, 0, 2, mat)
        # build the dense operator by permuting (0, 2, 1) explicitly
        mat4 = mat.reshape(2, 2, 2, 2)
        dense = np.einsum("acbd,ef->aecbfd", mat4, np.eye(3)).reshape(12, 12)
        assert np.allclose(got.amps, dense @ state.amps)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_pair_matches_dense_operator_on_every_ordered_pair(self, dims, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(dims)
        state = StateTensor(dims, random_amps(rng, math.prod(dims)))
        index = np.array(np.unravel_index(np.arange(math.prod(dims)), dims))
        for n, m in itertools.permutations(range(len(dims)), 2):
            mat = haar_unitary(dims[n] * dims[m], rng)
            # <x'|O|x> = mat[(x'_n, x'_m), (x_n, x_m)] where every other index agrees
            pair = index[n] * dims[m] + index[m]
            rest = np.delete(index, [n, m], axis=0)
            same_rest = np.all(rest[:, :, None] == rest[:, None, :], axis=0)
            dense = mat[pair[:, None], pair[None, :]] * same_rest
            got = apply_pairwise_unitary(state, n, m, mat)
            assert np.allclose(got.amps, dense @ state.amps, atol=1e-12), (dims, n, m)


class TestProjectSupports:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=5),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_each_projection_matches_its_own_product(self, dims, axis, seed):
        # bases of mixed ranks, zero-padded into one stack: out[:, i] is
        # P_i psi with P_i built from basis i alone
        rng = np.random.default_rng(seed)
        dims = tuple(dims)
        n = axis % len(dims)
        amps = random_amps(rng, int(np.prod(dims)))
        bases = []
        for _ in range(int(rng.integers(1, 4))):
            shape = (dims[n], dims[n])
            raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            bases.append(np.linalg.qr(raw)[0][:, : int(rng.integers(1, dims[n] + 1))])
        stack = basis_stack(bases)
        assert stack.shape == (len(bases), dims[n], max(b.shape[1] for b in bases))
        out = project_supports(amps, dims, n, stack)
        assert out.shape[:2] == (int(np.prod(dims[:n])), len(bases))
        for i, b in enumerate(bases):
            want = apply_matrix_at(amps, dims, n, b @ b.conj().T)
            assert np.allclose(out[:, i].reshape(-1), want, atol=1e-14)

    def test_first_subsystem_rows_need_no_copy(self):
        rng = np.random.default_rng(2)
        amps = random_amps(rng, 24)
        stack = basis_stack([np.eye(2)[:, [0]], np.eye(2)])
        out = project_supports(amps, (2, 3, 4), 0, stack)
        rows = out.reshape(2, -1)
        assert np.shares_memory(rows, out)
        assert np.array_equal(rows[1], amps) and np.array_equal(rows[0][12:], np.zeros(12))


class TestPartialTrace:
    def test_trace_one_and_hermitian(self):
        rng = np.random.default_rng(7)
        state = StateTensor((2, 3, 2), random_amps(rng, 12))
        rho = partial_trace(state, [1])
        assert type(rho) is np.ndarray and rho.shape == (3, 3)
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.allclose(rho, rho.conj().T)

    def test_product_state_is_pure(self):
        rng = np.random.default_rng(8)
        a = random_amps(rng, 2)
        b = random_amps(rng, 6)
        state = StateTensor((2, 3, 2), np.kron(a, b))
        rho = partial_trace(state, [0])
        assert abs(np.trace(rho @ rho).real - 1) < 1e-12

    def test_bell_half_is_maximally_mixed(self):
        bell = StateTensor((2, 2), np.array([1, 0, 0, 1.0]) / np.sqrt(2))
        rho = partial_trace(bell, [0])
        assert np.allclose(rho, np.eye(2) / 2)

    def test_pair_ordering(self):
        # keep-set comes back in ascending subsystem order
        rng = np.random.default_rng(9)
        a, b, c = random_amps(rng, 2), random_amps(rng, 3), random_amps(rng, 2)
        state = StateTensor((2, 3, 2), np.kron(np.kron(a, b), c))
        want = np.kron(np.outer(a, a.conj()), np.outer(c, c.conj()))
        assert np.allclose(partial_trace(state, [2, 0]), want, atol=1e-14)

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
        rho = partial_trace(state, [2])
        purity = float(np.trace(rho @ rho).real)
        assert 1 / 3 - 1e-12 <= purity <= 1 + 1e-12


def reference_partial_trace(state, keep):
    """The tensordot over all traced axes that ``partial_trace`` replaced."""
    keep = sorted(keep)
    traced = [n for n in range(state.n_subsystems) if n not in keep]
    arr = state.as_array()
    dim = math.prod(state.dims[n] for n in keep)
    return np.tensordot(arr, arr.conj(), axes=(traced, traced)).reshape(dim, dim)


def assert_density_bounds(rho):
    """Hermitian to 1e-12 and of trace 1 to 1e-10, as every reduced state of
    a normalized state is."""
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert abs(np.trace(rho) - 1) <= 1e-10


def keep_sets(n_subsystems):
    """Every single subsystem and every pair."""
    singles = [[n] for n in range(n_subsystems)]
    return singles + [[a, b] for a in range(n_subsystems) for b in range(a + 1, n_subsystems)]


class TestPartialTraceBits:
    """One transpose and one product give the tensordot's bits, so every
    spectrum and pair state downstream is unchanged."""

    def test_workload_and_catalog_states(self):
        cases = [
            StateTensor(c.dims, c.amps)
            for workload in ("nondegenerate", "degenerate", "many-qubits")
            for seed in range(3)
            for c in bench_states.make_cases(workload, seed)
        ]
        catalog = [ghz_state(), ghz_state(3, 4), ghz_state(10, 2), w_state(), w_state(5), u_state()]
        catalog += [v_state(), x_state(), z_state((0.5, 0.3, 0.2)), product_state((2, 3, 2))]
        cases += catalog + [dress_state(state, seed=4) for state in catalog]
        checked = 0
        for state in cases:
            for keep in keep_sets(state.n_subsystems):
                want = reference_partial_trace(state, keep)
                assert np.array_equal(partial_trace(state, keep), want)
                assert_density_bounds(want)
                checked += 1
        assert checked > 500

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=5),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.data(),
    )
    def test_random_states_and_keep_sets(self, dims, seed, data):
        state = random_state(tuple(dims), seed=seed)
        keep = data.draw(
            st.sets(st.integers(0, len(dims) - 1), min_size=1, max_size=len(dims) - 1)
        )
        want = reference_partial_trace(state, keep)
        assert np.array_equal(partial_trace(state, keep), want)
        assert_density_bounds(want)


class TestComposition:
    def test_tensor_compose(self):
        a = StateTensor((2, 2), [1, 0, 0, 0])
        b = StateTensor((3, 2), np.eye(6)[4])
        c = tensor_compose(a, b)
        assert c.dims == (2, 2, 3, 2)
        assert np.allclose(c.amps, np.kron(a.amps, b.amps))

    def test_permute_basis_state(self):
        dims = (2, 3, 2)
        amps = np.zeros(dims)
        amps[1, 2, 0] = 1.0
        state = StateTensor(dims, amps.reshape(-1))
        out = permute_subsystems(state, (2, 0, 1))
        # position k of the output holds old subsystem perm[k]
        assert out.dims == (2, 2, 3)
        assert out.as_array()[0, 1, 2] == 1.0

    def test_permute_round_trip(self):
        rng = np.random.default_rng(13)
        state = StateTensor((2, 3, 2), random_amps(rng, 12))
        out = permute_subsystems(permute_subsystems(state, (1, 2, 0)), (2, 0, 1))
        assert np.allclose(out.amps, state.amps)


def _z3():
    return z_state((0.5, 0.3, 0.2))


# every door that takes a subsystem dimension or count, a subsystem index,
# a split or a seed, called with the value in an index position; 2 is valid
# at each
INDEX_DOORS = {
    "StateTensor dims": lambda v: StateTensor((2, v), np.ones(4)),
    "partial_trace": lambda v: partial_trace(_z3(), [v]),
    "local_spectrum": lambda v: local_spectrum(_z3(), v),
    "apply_matrix_at": lambda v: apply_matrix_at(_z3().amps, _z3().dims, v, np.eye(3)),
    "ghz_state n_subsystems": lambda v: ghz_state(v),
    "ghz_state dim": lambda v: ghz_state(3, v),
    "w_state": lambda v: w_state(v),
    "z_state n_subsystems": lambda v: z_state((0.5, 0.5), v),
    "z_state dims": lambda v: z_state((0.5, 0.5), 3, (2, v, 2)),
    "random_state dims": lambda v: random_state((2, v)),
    "random_state seed": lambda v: random_state((2, 2), seed=v),
    "product_state dims": lambda v: product_state((2, v)),
    "product_state split": lambda v: product_state((2, 2, 2), split=v),
    "product_state seed": lambda v: product_state((2, 2), seed=v),
    "haar_unitary": lambda v: haar_unitary(v, np.random.default_rng(0)),
    "dress_state": lambda v: dress_state(ghz_state(), v),
    "StateSpec n_subsystems": lambda v: StateSpec("ghz", n_subsystems=v),
    "StateSpec dims": lambda v: StateSpec("z", weights=(0.5, 0.5), dims=(2, v, 2)),
    "StateSpec seed": lambda v: StateSpec("random", dims=(2, 2), seed=v),
    "StateSpec split": lambda v: StateSpec("product", dims=(2, 2, 2), split=v),
}


@pytest.mark.parametrize("door", sorted(INDEX_DOORS))
@pytest.mark.parametrize("value", [1.5, True, "1", np.float64(1.0)], ids=repr)
def test_index_arguments_are_never_truncated(door, value):
    # int() used to turn 1.5 and True into 1; numpy integers stay accepted
    with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {value!r}")):
        INDEX_DOORS[door](value)
    INDEX_DOORS[door](np.int64(2))


@pytest.mark.parametrize("door", ["apply_matrix_at", "partial_trace", "local_spectrum"])
@pytest.mark.parametrize("n", [-1, 3])
def test_subsystem_index_out_of_range(door, n):
    # a negative index is refused, not read from the end
    with pytest.raises(ValueError, match=f"subsystem index {n} out of range for 3 subsystems"):
        INDEX_DOORS[door](n)
