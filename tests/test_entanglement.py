import math

import numpy as np
import pytest

from lodecomp.catalog import (
    ghz_state,
    product_state,
    random_state,
    u_state,
    v_state,
    w_state,
    x_state,
    z_state,
)
from lodecomp.decomposition import maximal_decomposition
from lodecomp.entanglement import e_lo, weight_entropy
from lodecomp.tensor import StateTensor

from util import apply_local_unitary, apply_pairwise_unitary, level_mixing_unitary

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SWAP = np.eye(4)[[0, 2, 1, 3]]

# any 3x3 unitary works for the invariance checks; use a real rotation
ROTATION_D3 = np.array(
    [
        [np.cos(0.7), -np.sin(0.7), 0.0],
        [np.sin(0.7), np.cos(0.7), 0.0],
        [0.0, 0.0, 1.0],
    ]
)


class TestShannonEntropy:
    def test_uniform_dyadic(self):
        assert weight_entropy([0.5, 0.5]) == pytest.approx(1.0)
        assert weight_entropy([0.25] * 4) == pytest.approx(2.0)
        # renormalized first
        assert weight_entropy([2.0, 2.0]) == pytest.approx(1.0)

    def test_certain_outcome(self):
        assert weight_entropy([1.0]) == 0.0

    def test_zero_weight_ignored(self):
        assert weight_entropy([0.5, 0.5, 0.0]) == pytest.approx(1.0)

    def test_mixed(self):
        assert weight_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5)

    @pytest.mark.parametrize(
        "weights",
        [[0.6, -0.1, 0.5], [0.5, -0.5], [0.0], np.array([0.0]), [], [math.nan, 1.0],
         [1.0, math.inf], [-math.inf, 1.0]],
        ids=repr,
    )
    def test_bad_weights_rejected(self, weights):
        # [0.0] and [0.5, -0.5] used to divide by zero, and np.array([0.0]),
        # [], a nan or an inf gave 0 bits
        with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
            weight_entropy(weights)

    def test_never_negative(self):
        # weights summing slightly above 1 must not produce -0.0
        assert weight_entropy([1.0 + 2e-16]) == 0.0


class TestELO:
    def test_ghz_one_bit(self):
        assert type(e_lo(ghz_state())) is float
        assert e_lo(ghz_state()) == pytest.approx(1.0, abs=1e-12)
        result = maximal_decomposition(ghz_state())
        assert result.decomposition.n_branches == 2
        assert result.diagnostics.degenerate_subsystems
        assert not result.diagnostics.non_unique

    def test_counterexamples_zero(self):
        for state in (u_state(), v_state(), x_state()):
            assert maximal_decomposition(state).decomposition.n_branches == 1
            assert e_lo(state) == 0.0

    def test_z_weights(self):
        assert e_lo(z_state((0.5, 0.25, 0.25))) == pytest.approx(1.5, abs=1e-9)

    def test_w_zero(self):
        result = maximal_decomposition(w_state())
        assert result.decomposition.n_branches == 1
        assert not result.diagnostics.degenerate_subsystems
        assert e_lo(w_state()) == 0.0

    def test_bell_one_bit_non_unique(self):
        bell = StateTensor((2, 2), np.array([1.0, 0.0, 0.0, 1.0]))
        assert e_lo(bell) == pytest.approx(1.0, abs=1e-12)
        assert maximal_decomposition(bell).diagnostics.non_unique

    def test_product_exactly_zero(self):
        state = product_state((2, 3, 2), split=1, seed=5)
        assert maximal_decomposition(state).decomposition.n_branches == 1
        assert e_lo(state) == 0.0

    def test_entropy_bounded_by_log_branch_count(self):
        state = z_state((0.4, 0.35, 0.25))
        branches = maximal_decomposition(state).decomposition.n_branches
        assert 0.0 < e_lo(state) <= math.log2(branches) + 1e-12


class TestApplyLocalUnitary:
    def test_identity_fixes_state(self):
        w = w_state()
        out = apply_local_unitary(w, 1, np.eye(2))
        assert np.allclose(out.amps, w.amps)

    def test_bit_flip_on_first_subsystem(self):
        zero = StateTensor((2, 2, 2), np.eye(8)[0])
        out = apply_local_unitary(zero, 0, PAULI_X)
        expect = np.zeros(8)
        expect[4] = 1.0  # |100>
        assert np.allclose(out.amps, expect)

    def test_bit_flip_on_last_subsystem(self):
        zero = StateTensor((2, 2, 2), np.eye(8)[0])
        out = apply_local_unitary(zero, 2, PAULI_X)
        expect = np.zeros(8)
        expect[1] = 1.0  # |001>
        assert np.allclose(out.amps, expect)

    def test_norm_preserved(self):
        state = random_state((3, 2, 2), seed=11)
        out = apply_local_unitary(state, 0, np.diag(np.exp(1j * np.array([0.3, 1.1, 2.0]))))
        assert np.linalg.norm(out.amps) == pytest.approx(1.0)

    def test_entropy_invariant(self):
        state = z_state((0.5, 0.3, 0.2))
        before = e_lo(state)
        after = e_lo(apply_local_unitary(state, 2, ROTATION_D3))
        assert after == pytest.approx(before, abs=1e-9)


class TestApplyPairwiseUnitary:
    def test_swap_adjacent(self):
        # |01x> -> |10x>
        state = StateTensor((2, 2, 2), np.eye(8)[2])  # |010>
        out = apply_pairwise_unitary(state, 0, 1, SWAP)
        assert np.argmax(np.abs(out.amps)) == 4  # |100>

    def test_reversed_pair_order(self):
        # with (n, m) = (1, 0) the first index of the matrix belongs to
        # subsystem 1, so a swap still exchanges the two qubits
        state = StateTensor((2, 2, 2), np.eye(8)[2])
        out = apply_pairwise_unitary(state, 1, 0, SWAP)
        assert np.argmax(np.abs(out.amps)) == 4

    def test_non_adjacent_pair(self):
        state = StateTensor((2, 2, 2), np.eye(8)[1])  # |001>
        out = apply_pairwise_unitary(state, 0, 2, SWAP)
        assert np.argmax(np.abs(out.amps)) == 4  # |100>

    def test_norm_preserved(self):
        state = random_state((2, 3, 2), seed=4)
        out = apply_pairwise_unitary(state, 0, 2, SWAP)
        assert np.linalg.norm(out.amps) == pytest.approx(1.0)


class TestLevelMixing:
    def test_is_unitary(self):
        for (dn, dm, a, b) in ((2, 2, 0, 1), (3, 4, 0, 2), (4, 4, 1, 3)):
            u = level_mixing_unitary(dn, dm, a, b)
            assert np.allclose(u @ u.conj().T, np.eye(dn * dm))

    def test_mixes_matched_levels(self):
        u = level_mixing_unitary(2, 2, 0, 1)
        aa = np.eye(4)[0]  # |00>
        bb = np.eye(4)[3]  # |11>
        assert np.allclose(u @ aa, (aa + bb) / np.sqrt(2))
        assert np.allclose(u @ bb, (aa - bb) / np.sqrt(2))

    def test_fixes_unmatched_levels(self):
        u = level_mixing_unitary(3, 3, 0, 2)
        for flat in range(1, 8):  # everything but |00> (flat 0) and |22> (flat 8)
            e = np.eye(9)[flat]
            assert np.allclose(u @ e, e)

    def test_spare_level_mixing_preserves_weights(self):
        # entangling a populated level with a spare one stays inside that
        # branch's subspaces, so the weights survive
        state = z_state((0.6, 0.4), 3, (3, 3, 3))
        u = level_mixing_unitary(3, 3, 0, 2)
        before = maximal_decomposition(state).decomposition.weights
        after = maximal_decomposition(apply_pairwise_unitary(state, 1, 2, u)).decomposition.weights
        assert after.shape == before.shape
        assert np.allclose(sorted(after), sorted(before), atol=1e-9)

    def test_equal_weight_branch_mixing_rotates(self):
        # mixing two equally weighted populated levels only rotates the
        # branch bases; the decomposition keeps both branches
        mixed = apply_pairwise_unitary(ghz_state(), 0, 1, level_mixing_unitary(2, 2, 0, 1))
        assert maximal_decomposition(mixed).decomposition.n_branches == 2
        assert e_lo(mixed) == pytest.approx(1.0, abs=1e-9)

    def test_unequal_weight_branch_mixing_destroys_records(self):
        # mixing two unequally weighted populated levels leaks each branch
        # into the other's subspaces and the split disappears
        state = z_state((0.6, 0.4))
        u = level_mixing_unitary(2, 2, 0, 1)
        mixed = apply_pairwise_unitary(state, 0, 1, u)
        assert maximal_decomposition(mixed).decomposition.n_branches == 1
        assert e_lo(mixed) == 0.0
