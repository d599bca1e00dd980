import numpy as np
import pytest

from lodecomp.catalog import (
    dress_state,
    ghz_state,
    random_state,
    u_state,
    v_state,
    w_state,
    x_state,
    z_state,
)
from lodecomp.decomposition import maximal_decomposition
from lodecomp.errors import DegenerateSpectrumError
from lodecomp.oracle import (
    ORACLE_MAX_DIM,
    oracle_maximal_nondegenerate,
    oracle_verify_maximality_small,
)

from util import assert_same_decomposition, coarse_grain, trivial_decomposition


class TestOracleConstruction:
    def test_w_single_branch(self):
        d = oracle_maximal_nondegenerate(w_state())
        assert d.n_branches == 1

    def test_z_three_branches(self):
        d = oracle_maximal_nondegenerate(z_state((0.5, 0.3, 0.2)))
        assert d.n_branches == 3
        assert np.allclose(d.weights, [0.5, 0.3, 0.2])

    def test_refuses_degenerate(self):
        with pytest.raises(DegenerateSpectrumError):
            oracle_maximal_nondegenerate(ghz_state())

    def test_refuses_equal_weight_z(self):
        with pytest.raises(DegenerateSpectrumError):
            oracle_maximal_nondegenerate(z_state((0.25, 0.25, 0.25, 0.25), 3, (4, 4, 4)))

    def test_counterexamples_all_degenerate(self):
        # every pairwise-entangled counterexample has at least one locally
        # maximally mixed subsystem, so the eigenvector oracle must refuse
        for state in (u_state(), v_state(), x_state()):
            with pytest.raises(DegenerateSpectrumError):
                oracle_maximal_nondegenerate(state)

    def test_agrees_with_main_path(self):
        cases = [
            z_state((0.5, 0.3, 0.2)),
            z_state((0.4, 0.3, 0.2, 0.1), 4, (4, 4, 4, 4)),
            dress_state(z_state((0.6, 0.25, 0.15)), seed=3),
            dress_state(z_state((0.7, 0.3), 4, (2, 3, 2, 3)), seed=8),
            w_state(),
        ]
        for k in range(6):
            cases.append(random_state((2, 3, 2), seed=100 + k))
        for state in cases:
            oracle = oracle_maximal_nondegenerate(state)
            main = maximal_decomposition(state).decomposition
            assert_same_decomposition(main, oracle)


class TestMaximalityVerdicts:
    def test_maximal_ghz_passes(self):
        d = maximal_decomposition(ghz_state()).decomposition
        verdict = oracle_verify_maximality_small(d)
        assert verdict.verdict == "pass"
        assert verdict.passed
        assert not verdict.failed

    def test_trivial_ghz_fails(self):
        verdict = oracle_verify_maximality_small(trivial_decomposition(ghz_state()))
        assert verdict.verdict == "fail"
        assert verdict.failed
        assert "branch" in verdict.detail

    def test_maximal_w_passes(self):
        d = maximal_decomposition(w_state()).decomposition
        assert oracle_verify_maximality_small(d).verdict == "pass"

    def test_trivial_z_fails(self):
        verdict = oracle_verify_maximality_small(
            trivial_decomposition(z_state((0.5, 0.3, 0.2)))
        )
        assert verdict.verdict == "fail"

    def test_x_state_inconclusive(self):
        # all reduced states are maximally mixed, so the eigenvector
        # enumeration is not exhaustive; no split exists to find
        d = maximal_decomposition(x_state()).decomposition
        verdict = oracle_verify_maximality_small(d)
        assert verdict.verdict == "inconclusive"
        assert not verdict.failed

    def test_maximal_z_passes(self):
        d = maximal_decomposition(z_state((0.5, 0.3, 0.2))).decomposition
        assert oracle_verify_maximality_small(d).verdict == "pass"

    def test_partially_merged_fails(self):
        full = maximal_decomposition(z_state((0.5, 0.3, 0.2))).decomposition
        merged = coarse_grain(full, [[0, 1], [2]])
        assert oracle_verify_maximality_small(merged).verdict == "fail"

    def test_dimension_cap(self):
        big = trivial_decomposition(ghz_state(9, 2))  # total dim 512
        with pytest.raises(ValueError):
            oracle_verify_maximality_small(big)
        at_cap = maximal_decomposition(ghz_state(8, 2)).decomposition  # 256
        assert oracle_verify_maximality_small(at_cap).verdict in ("pass", "inconclusive")

    def test_cap_constant(self):
        assert ORACLE_MAX_DIM == 256
