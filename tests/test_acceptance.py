"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single summary line (visible with -s); the pytest
verdict per test is the pass/fail line per criterion.
"""

import subprocess
import sys

import numpy as np

from lodecomp import decomposition
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
from lodecomp.decomposition import maximal_decomposition, verify_lo
from lodecomp.entanglement import e_lo, weight_entropy
from lodecomp.oracle import oracle_maximal_nondegenerate, oracle_verify_maximality_small
from lodecomp.tensor import apply_matrix_at

from util import (
    apply_pairwise_unitary,
    assert_same_decomposition,
    coarse_grain,
    common_fine_graining,
    is_coarse_graining_of,
    level_mixing_unitary,
    permute_subsystems,
    random_partition,
    random_weights,
    tensor_compose,
)

WEIGHT_ATOL = 1e-9
ENTROPY_ATOL = 1e-9
NINDEP_ATOL = 1e-8


def spaced_weights(rng, k, gap=0.03):
    """Weights with pairwise gaps above ``gap``: non-degenerate spectra."""
    while True:
        raw = rng.random(k) + 0.05
        w = np.sort(raw / raw.sum())[::-1]
        if np.all(-np.diff(w) > gap):
            return tuple(float(x) for x in w)


def test_criterion_1_golden_cases():
    golden = [
        (ghz_state(), 2, 1.0),
        (w_state(), 1, 0.0),
        (u_state(), 1, 0.0),
        (v_state(), 1, 0.0),
        (x_state(), 1, 0.0),
    ]
    for state, branch_count, entropy in golden:
        result = maximal_decomposition(state)
        assert result.decomposition.n_branches == branch_count
        assert abs(e_lo(state) - entropy) <= ENTROPY_ATOL
    print("ACCEPTANCE 1 (golden cases): PASS")


def test_criterion_2_z_state_family(monkeypatch):
    rng = np.random.default_rng(20260819)
    for trial in range(50):
        n = (3, 4, 5)[trial % 3]
        k = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(k, 5)) for _ in range(n))
        if trial % 5 == 0:
            weights = (1.0 / k,) * k  # fully degenerate, equal weights
        else:
            weights = random_weights(rng, k)
        state = dress_state(z_state(weights, n, dims), seed=1000 + trial)
        monkeypatch.setattr(decomposition, "SBD_SEED", trial)
        result = maximal_decomposition(state)
        got = np.sort(result.decomposition.weights)[::-1]
        want = np.sort(np.array(weights))[::-1]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= WEIGHT_ATOL
        assert abs(e_lo(state) - weight_entropy(weights)) <= ENTROPY_ATOL
    print("ACCEPTANCE 2 (z-state family, 50 dressed cases): PASS")


def test_criterion_3_oracle_equivalence(monkeypatch):
    rng = np.random.default_rng(333)
    decided = 0
    for trial in range(200):
        n = 3 if trial % 4 < 2 else 4
        dims = tuple(int(rng.integers(2, 4)) for _ in range(n))
        if trial % 2 == 0:
            k = int(rng.integers(2, min(dims) + 1))
            state = dress_state(
                z_state(spaced_weights(rng, k), n, dims), seed=5000 + trial
            )
        else:
            state = random_state(dims, seed=7000 + trial)
        oracle = oracle_maximal_nondegenerate(state)
        monkeypatch.setattr(decomposition, "SBD_SEED", trial)
        main = maximal_decomposition(state).decomposition
        assert_same_decomposition(main, oracle, atol=WEIGHT_ATOL)
        verdict = oracle_verify_maximality_small(main)
        assert verdict.verdict in ("pass", "inconclusive"), verdict.detail
        decided += verdict.verdict == "pass"
    assert decided >= 150
    print(f"ACCEPTANCE 3 (oracle equivalence, 200 states, {decided} decided): PASS")


def test_criterion_4_uniqueness(monkeypatch):
    rng = np.random.default_rng(44)
    for trial in range(50):
        n = 3 if trial % 2 == 0 else 4
        k = int(rng.integers(3, 5))
        dims = tuple(int(rng.integers(k, 5)) for _ in range(n))
        state = dress_state(
            z_state(spaced_weights(rng, k), n, dims), seed=9000 + trial
        )
        monkeypatch.setattr(decomposition, "SBD_SEED", trial)
        full = maximal_decomposition(state).decomposition
        if trial % 3 == 0:
            c1 = full
        else:
            c1 = coarse_grain(full, random_partition(rng, full.n_branches, 2))
        c2 = coarse_grain(
            full, random_partition(rng, full.n_branches, int(rng.integers(2, 4)))
        )
        fg = common_fine_graining(c1, c2)
        assert verify_lo(fg).passed
        assert is_coarse_graining_of(c1, fg)
        assert is_coarse_graining_of(c2, fg)
        if trial % 3 == 0:
            assert_same_decomposition(fg, full, atol=WEIGHT_ATOL)
        # the pairwise projector products defining the fine-graining agree
        # in both evaluation orders and across subsystems
        reference = {}
        for i, bi in enumerate(c1.branches):
            for j, bj in enumerate(c2.branches):
                for sub in range(len(state.dims)):
                    p1 = bi.supports[sub] @ bi.supports[sub].conj().T
                    p2 = bj.supports[sub] @ bj.supports[sub].conj().T
                    first = apply_matrix_at(
                        apply_matrix_at(state.amps, state.dims, sub, p2),
                        state.dims, sub, p1,
                    )
                    second = apply_matrix_at(
                        apply_matrix_at(state.amps, state.dims, sub, p1),
                        state.dims, sub, p2,
                    )
                    assert np.linalg.norm(first - second) <= WEIGHT_ATOL
                    if (i, j) in reference:
                        assert np.linalg.norm(first - reference[i, j]) <= WEIGHT_ATOL
                    else:
                        reference[i, j] = first
    print("ACCEPTANCE 4 (uniqueness / common fine-graining, 50 pairs): PASS")


def test_criterion_5_bipartite_reduction():
    rng = np.random.default_rng(55)
    degenerate_seen = 0
    for trial in range(100):
        if trial % 5 == 4:
            state = ghz_state(2, int(rng.integers(2, 7)))
        else:
            dims = (int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            state = random_state(dims, seed=1234 + trial)
        result = maximal_decomposition(state)
        want = np.linalg.svd(state.as_array(), compute_uv=False) ** 2
        got = np.sort(result.decomposition.weights)[::-1]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= WEIGHT_ATOL
        if trial % 5 == 4:
            assert result.diagnostics.non_unique
            degenerate_seen += 1
        else:
            assert not result.diagnostics.non_unique
    assert degenerate_seen == 20
    print("ACCEPTANCE 5 (bipartite reduction, 100 states): PASS")


def test_criterion_6_invariance(monkeypatch):
    rng = np.random.default_rng(66)
    bases = [
        z_state((0.5, 0.3, 0.2)),
        dress_state(z_state((0.4, 0.35, 0.25), 4, (3, 3, 3, 3)), seed=1),
        ghz_state(),
        w_state(),
        v_state(),
        random_state((2, 3, 2), seed=3),
    ]
    for idx, state in enumerate(bases):
        monkeypatch.setattr(decomposition, "SBD_SEED", idx)
        before = e_lo(state)
        assert abs(e_lo(dress_state(state, seed=600 + idx)) - before) <= ENTROPY_ATOL
        perm = tuple(int(p) for p in rng.permutation(state.n_subsystems))
        assert abs(e_lo(permute_subsystems(state, perm)) - before) <= ENTROPY_ATOL
    for trial in range(8):
        a = random_state((2, 2), seed=70 + trial)
        b = random_state((2,) * (2 + trial % 2), seed=90 + trial)
        monkeypatch.setattr(decomposition, "SBD_SEED", trial)
        assert e_lo(tensor_compose(a, b)) == 0.0
    # pairwise mixing of a populated level with a spare one (the
    # branch-preserving entangling class) keeps the weights
    for trial in range(6):
        k = 2 + trial % 2
        dims = (k + 1,) * 3
        weights = spaced_weights(rng, k)
        state = z_state(weights, 3, dims)
        u = level_mixing_unitary(k + 1, k + 1, trial % k, k)
        n, m = ((0, 1), (1, 2), (2, 0))[trial % 3]
        mixed = apply_pairwise_unitary(state, n, m, u)
        monkeypatch.setattr(decomposition, "SBD_SEED", trial)
        got = np.sort(maximal_decomposition(mixed).decomposition.weights)[::-1]
        assert np.max(np.abs(got - np.array(weights))) <= WEIGHT_ATOL
    print("ACCEPTANCE 6 (invariance suite): PASS")


def test_criterion_7_structural_invariants(monkeypatch):
    rng = np.random.default_rng(77)
    suite = [
        ghz_state(),
        ghz_state(4, 3),
        w_state(),
        w_state(4),
        u_state(),
        v_state(),
        x_state(),
        z_state((0.5, 0.25, 0.25)),
        dress_state(z_state((0.45, 0.3, 0.25), 4, (3, 4, 3, 4)), seed=2),
        product_state((2, 2, 3), split=1, seed=3),
        random_state((3, 3, 3), seed=4),
        random_state((2, 2, 2, 2), seed=5),
    ]
    for trial in range(10):
        k = int(rng.integers(2, 4))
        dims = tuple(int(rng.integers(k, 5)) for _ in range(3))
        suite.append(dress_state(z_state(random_weights(rng, k), 3, dims), seed=trial))
    for idx, state in enumerate(suite):
        monkeypatch.setattr(decomposition, "SBD_SEED", idx)
        result = maximal_decomposition(state)
        d = result.decomposition
        assert result.verification.passed
        assert verify_lo(d).passed
        assert d.n_branches <= min(state.dims)
        assert abs(float(np.sum(d.weights)) - 1.0) <= WEIGHT_ATOL
        recon = sum(np.sqrt(b.weight) * b.vector for b in d.branches)
        assert np.linalg.norm(recon - state.amps) <= 1e-9
        assert result.diagnostics.n_independence_residual <= NINDEP_ATOL
    print(f"ACCEPTANCE 7 (structural invariants on {len(suite)} decompositions): PASS")


# the CLI with the SBD generator seeded by argv[1] instead of SBD_SEED
SEEDED_CLI = (
    "import sys; from lodecomp import cli, decomposition; "
    "decomposition.SBD_SEED = int(sys.argv[1]); sys.exit(cli.main(sys.argv[2:]))"
)


def test_criterion_8_determinism(tmp_path):
    def run(*argv, sbd_seed=None):
        entry = ["-m", "lodecomp"] if sbd_seed is None else ["-c", SEEDED_CLI, str(sbd_seed)]
        proc = subprocess.run([sys.executable, *entry, *argv], capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    cases = [
        ("ghz-like", ("--kind", "ghz")),
        ("distinct-weights", ("--kind", "z", "--weights", "0.5,0.3,0.2")),
        (
            "dressed-degenerate",
            (
                "--kind", "random_local_dressing", "--base", "z",
                "--weights", "0.25,0.25,0.25,0.25", "--dims", "4,4,4",
                "--seed", "6",
            ),
        ),
    ]
    for label, args in cases:
        state_path = tmp_path / f"{label}.json"
        run("generate", *args, "-o", str(state_path))
        first = run("decompose", str(state_path), "--format", "json", sbd_seed=11)
        second = run("decompose", str(state_path), "--format", "json", sbd_seed=11)
        assert first and first == second, f"{label}: reports differ between runs"
    print("ACCEPTANCE 8 (byte-identical CLI JSON under a fixed SBD seed): PASS")
