import numpy as np
import pytest

from lodecomp.catalog import (
    StateSpec,
    dress_state,
    generate,
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
from lodecomp.tensor import partial_trace


def purity(state, keep):
    rho = partial_trace(state, keep)
    return float(np.trace(rho @ rho).real)


class TestNamedStates:
    def test_all_normalized(self):
        for state in (
            ghz_state(),
            ghz_state(4, 3),
            w_state(),
            w_state(5),
            z_state((0.5, 0.3, 0.2)),
            u_state(),
            v_state(),
            x_state(),
        ):
            assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_amplitudes(self):
        amps = ghz_state().amps
        assert amps[0] == pytest.approx(1 / np.sqrt(2))
        assert amps[7] == pytest.approx(1 / np.sqrt(2))
        assert np.count_nonzero(amps) == 2

    def test_ghz_validation(self):
        with pytest.raises(ValueError):
            ghz_state(1)
        with pytest.raises(ValueError):
            ghz_state(3, 1)

    def test_w_amplitudes(self):
        amps = w_state().amps
        populated = {1, 2, 4}  # |001>, |010>, |100>
        for flat in range(8):
            expect = 1 / np.sqrt(3) if flat in populated else 0.0
            assert amps[flat] == pytest.approx(expect)

    def test_z_equal_weights_is_ghz(self):
        assert np.allclose(z_state((0.5, 0.5)).amps, ghz_state().amps)

    def test_z_validation(self):
        with pytest.raises(ValueError):
            z_state((0.5, 0.4))  # does not sum to 1
        with pytest.raises(ValueError):
            z_state((0.5, 0.3, 0.2), 3, (2, 2, 2))  # three levels do not fit
        with pytest.raises(ValueError):
            z_state((0.5, 0.5, -0.0000001, 0.0000001))

    def test_z_rejects_non_finite_weights(self):
        # the weights are named, not the amplitudes they would have made
        with pytest.raises(ValueError, match="weights must be nonempty and nonnegative"):
            z_state((0.5, np.nan, 0.5))

    def test_u_amplitudes(self):
        amps = u_state().amps
        dims = (2, 2, 2)
        assert amps[np.ravel_multi_index((0, 0, 0), dims)] == pytest.approx(1 / np.sqrt(2))
        assert amps[np.ravel_multi_index((1, 1, 0), dims)] == pytest.approx(1 / np.sqrt(2))
        assert np.count_nonzero(amps) == 2

    def test_u_third_subsystem_pure(self):
        assert purity(u_state(), [2]) == pytest.approx(1.0)
        assert purity(u_state(), [0]) == pytest.approx(0.5)

    def test_v_amplitudes(self):
        amps = v_state().amps
        dims = (2, 4, 2)
        for multi in ((0, 0, 0), (0, 2, 1), (1, 1, 0), (1, 3, 1)):
            assert amps[np.ravel_multi_index(multi, dims)] == pytest.approx(0.5)
        assert np.count_nonzero(amps) == 4

    def test_v_all_reduced_states_mixed(self):
        v = v_state()
        assert purity(v, [0]) == pytest.approx(0.5)
        assert purity(v, [1]) == pytest.approx(0.25)
        assert purity(v, [2]) == pytest.approx(0.5)

    def test_x_reduced_states_maximally_mixed(self):
        x = x_state()
        for n in range(3):
            rho = partial_trace(x, [n])
            assert np.allclose(rho, np.eye(4) / 4, atol=1e-12)

    def test_x_pair_purity(self):
        # tracing out one party leaves one Bell pair pure and one qubit
        # mixed on each side: purity (1/2)*(1/2) = 1/4
        assert purity(x_state(), [0, 1]) == pytest.approx(0.25)


class TestRandomFamilies:
    def test_random_state_deterministic(self):
        a = random_state((3, 2, 2), seed=7)
        b = random_state((3, 2, 2), seed=7)
        assert np.array_equal(a.amps, b.amps)

    def test_random_state_seed_sensitivity(self):
        a = random_state((2, 2), seed=1)
        b = random_state((2, 2), seed=2)
        assert not np.allclose(a.amps, b.amps)

    def test_product_state_is_product(self):
        state = product_state((2, 3, 2), split=2, seed=3)
        assert purity(state, [0, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_split_validation(self):
        with pytest.raises(ValueError):
            product_state((2, 2), split=0)
        with pytest.raises(ValueError):
            product_state((2, 2), split=2)

    def test_haar_unitary_properties(self):
        rng = np.random.default_rng(5)
        u = haar_unitary(4, rng)
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
        again = haar_unitary(4, np.random.default_rng(5))
        assert np.array_equal(u, again)

    def test_dress_state_preserves_spectra(self):
        state = z_state((0.5, 0.3, 0.2))
        dressed = dress_state(state, seed=11)
        for n in range(3):
            before = np.linalg.eigvalsh(partial_trace(state, [n]))
            after = np.linalg.eigvalsh(partial_trace(dressed, [n]))
            assert np.allclose(before, after, atol=1e-12)

    def test_dress_state_deterministic(self):
        a = dress_state(ghz_state(), seed=2)
        b = dress_state(ghz_state(), seed=2)
        assert np.array_equal(a.amps, b.amps)

    def test_none_seed_rejected(self):
        # a seed is an integer: None would draw fresh entropy, so it raises
        for call in (
            lambda: random_state((2, 2), seed=None),
            lambda: product_state((2, 2), seed=None),
            lambda: dress_state(ghz_state(), seed=None),
        ):
            with pytest.raises(ValueError, match="seed must be an integer, got None"):
                call()

    @pytest.mark.parametrize("call, seed", [
        (lambda: random_state((2, 2), seed=-1), -1),
        (lambda: product_state((2, 2), seed=-3), -3),
        (lambda: dress_state(ghz_state(), seed=-2), -2),
        (lambda: generate(StateSpec("random", dims=(2, 2), seed=-1)), -1),
    ], ids=["random_state", "product_state", "dress_state", "generate"])
    def test_negative_seed_named(self, call, seed):
        # numpy's own message, "expected non-negative integer", named no argument
        with pytest.raises(ValueError, match=f"^seed must be a nonnegative integer, got {seed}$"):
            call()

    def test_unset_spec_seed_is_zero(self):
        base = StateSpec("ghz")
        for spec, want in (
            (StateSpec("random", dims=(2, 2)), random_state((2, 2), 0)),
            (StateSpec("product", dims=(2, 2)), product_state((2, 2), 1, 0)),
            (StateSpec("random_local_dressing", base=base), dress_state(ghz_state(), 0)),
        ):
            assert np.array_equal(generate(spec).amps, want.amps)


class TestStateSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            StateSpec(kind="bell")

    def test_coerces_tuples(self):
        spec = StateSpec(kind="z", weights=[0.5, 0.5], dims=[2, 2, 2])
        assert spec.weights == (0.5, 0.5)
        assert spec.dims == (2, 2, 2)


class TestGenerate:
    def test_named_kinds(self):
        assert np.array_equal(generate(StateSpec(kind="ghz")).amps, ghz_state().amps)
        assert np.array_equal(generate(StateSpec(kind="w")).amps, w_state().amps)
        assert np.array_equal(generate(StateSpec(kind="u")).amps, u_state().amps)
        assert np.array_equal(generate(StateSpec(kind="v")).amps, v_state().amps)
        assert np.array_equal(generate(StateSpec(kind="x")).amps, x_state().amps)

    def test_ghz_with_dims(self):
        state = generate(StateSpec(kind="ghz", n_subsystems=4, dims=(3, 3, 3, 3)))
        assert state.dims == (3, 3, 3, 3)

    def test_ghz_unequal_dims_rejected(self):
        with pytest.raises(ValueError):
            generate(StateSpec(kind="ghz", n_subsystems=3, dims=(2, 2, 3)))

    def test_z_requires_weights(self):
        with pytest.raises(ValueError):
            generate(StateSpec(kind="z"))

    def test_z_from_spec(self):
        spec = StateSpec(kind="z", weights=(0.5, 0.25, 0.25), dims=(3, 4, 3), n_subsystems=3)
        assert np.array_equal(generate(spec).amps, z_state((0.5, 0.25, 0.25), 3, (3, 4, 3)).amps)

    def test_fixed_kinds_reject_parameters(self):
        with pytest.raises(ValueError):
            generate(StateSpec(kind="x", dims=(4, 4, 4)))
        with pytest.raises(ValueError):
            generate(StateSpec(kind="u", seed=1))

    def test_random_requires_dims(self):
        with pytest.raises(ValueError):
            generate(StateSpec(kind="random", seed=3))

    def test_random_matches_direct_call(self):
        spec = StateSpec(kind="random", dims=(2, 3), seed=9)
        assert np.array_equal(generate(spec).amps, random_state((2, 3), seed=9).amps)

    def test_dressing_requires_base(self):
        with pytest.raises(ValueError):
            generate(StateSpec(kind="random_local_dressing", seed=1))

    def test_dressing_matches_direct_call(self):
        spec = StateSpec(
            kind="random_local_dressing",
            base=StateSpec(kind="ghz"),
            seed=4,
        )
        assert np.array_equal(generate(spec).amps, dress_state(ghz_state(), seed=4).amps)

    @pytest.mark.parametrize("kind, extra", [("ghz", {}), ("w", {}), ("z", {"weights": (1.0,)})])
    def test_explicit_zero_subsystems_rejected(self, kind, extra):
        # 0 is a given count, not a missing one: it must not become 3
        with pytest.raises(ValueError, match="subsystems"):
            generate(StateSpec(kind=kind, n_subsystems=0, **extra))
        with pytest.raises(ValueError):
            generate(StateSpec(kind=kind, n_subsystems=0, dims=(2, 2, 2), **extra))

    def test_explicit_zero_split_rejected(self):
        with pytest.raises(ValueError, match="split"):
            generate(StateSpec(kind="product", dims=(2, 2, 2), split=0))

    def test_counts_not_given_keep_their_defaults(self):
        assert generate(StateSpec(kind="ghz")).dims == (2, 2, 2)
        assert generate(StateSpec(kind="ghz", dims=(3, 3, 3, 3))).dims == (3, 3, 3, 3)
        assert generate(StateSpec(kind="w", dims=(2, 2))).dims == (2, 2)
        spec = StateSpec(kind="product", dims=(2, 2, 3), seed=6)
        assert np.array_equal(generate(spec).amps, product_state((2, 2, 3), split=1, seed=6).amps)

    def test_product_from_spec(self):
        spec = StateSpec(kind="product", dims=(2, 2, 3), split=2, seed=6)
        assert np.array_equal(generate(spec).amps, product_state((2, 2, 3), split=2, seed=6).amps)
