"""Fused-party cross-checks: an independent check of the maximal
decomposition at sizes no oracle reaches.

Fuse parties a and b into one party ab.  Supports orthogonal on a, or on
b, make the supports on ab orthogonal, so every locally orthogonal
decomposition of psi is also one of the fused state.  Its maximal
decomposition therefore refines psi's: the branch count and E_LO never
fall, and with three or more parties left, each fused branch lies inside
one unfused branch.  Two parties left go down the Schmidt path, a plain
SVD that shares no code with SBD; their Schmidt vectors may mix weights
that are degenerate across branches, so only the count and E_LO are
checked there.  Appending a party that holds |i> on branch i leaves the
weights unchanged: each branch has a rank-1 support there, so none splits.
"""

import numpy as np
import pytest

from lodecomp.catalog import dress_state, ghz_state, random_state, w_state, x_state, z_state
from lodecomp.decomposition import T_NINDEP, VERIFY_ATOL, maximal_decomposition
from lodecomp.entanglement import weight_entropy
from lodecomp.spectral import local_spectrum
from lodecomp.tensor import StateTensor

from util import permute_subsystems  # and bench/ on the path
import states as bench_states

# verify_lo passes ||P_n^i psi - sqrt(w_i) v_i|| <= r on both sides.  To
# first order a support turned by theta off the exact one moves P psi by at
# least theta sqrt(lam), lam the smallest in-support eigenvalue of rho_n, so
# theta <= r / sqrt(lam) on each side, and the overlap deficit of a fused
# support inside its unfused one is at most (2 r)^2 / lam.  T_NINDEP bounds
# that for every lam >= (2 r)^2 / T_NINDEP = 6.4e-9, which the test asserts.
R_NINDEP = (T_NINDEP - 2 * VERIFY_ATOL) / 2
OVERLAP_ATOL = T_NINDEP
LAMBDA_MIN = (2 * R_NINDEP) ** 2 / OVERLAP_ATOL
# each side's weights are squared norms ||P_0^i psi||^2 over supports that
# verify_lo passed at VERIFY_ATOL; the record party adds only cross terms
# between branches, which local_orthogonality bounds to first order by
# VERIFY_ATOL on each side
RECORD_ATOL = 2 * VERIFY_ATOL


def entropy_slack(weights) -> float:
    """How far E_LO moves, to first order, when every weight moves by
    VERIFY_ATOL, the tolerance of verify_lo's weight_sum and
    reconstruction: |dH / dw_i| = |log2 w_i + log2 e|."""
    return VERIFY_ATOL * float(np.sum(np.abs(np.log2(weights) + np.log2(np.e))))


def fuse(state: StateTensor, a: int, b: int) -> tuple:
    """The state with parties a < b fused into one party at a's place, and
    {old index: new index} of every other party."""
    order = [n for n in range(state.n_subsystems) if n != b]
    order.insert(a + 1, b)
    moved = permute_subsystems(state, order)
    dims = moved.dims
    fused = StateTensor(dims[:a] + (dims[a] * dims[a + 1],) + dims[a + 2:], moved.amps)
    return fused, {old: new - (new > a) for new, old in enumerate(order) if old not in (a, b)}


def with_record(d) -> StateTensor:
    """sum_i sqrt(w_i) v_i (x) |i>: the state with a party that records the branch."""
    components = np.stack([br.vector for br in d.branches]) * np.sqrt(d.weights)[:, None]
    return StateTensor(d.state.dims + (d.n_branches,), components.T.reshape(-1))


def fusion_states():
    states = {
        "ghz 4": ghz_state(4),
        "ghz 12": ghz_state(12),
        "dressed ghz 4": dress_state(ghz_state(4), seed=0),
        "dressed ghz 12": dress_state(ghz_state(12), seed=0),
        "w 4": w_state(4),
        "dressed z 4x3": dress_state(z_state((0.5, 0.3, 0.2), 4, (3,) * 4), seed=1),
        "dressed ghz 5x3": dress_state(ghz_state(5, 3), seed=2),
        "x": x_state(),
        "random 2^4": random_state((2,) * 4, seed=0),
    }
    for workload in sorted(bench_states.WORKLOADS):
        case = bench_states.make_cases(workload, 0)[0]
        states[workload] = StateTensor(case.dims, case.amps)
    return states


STATES = fusion_states()


@pytest.fixture(scope="module")
def maximal():
    return {name: maximal_decomposition(state) for name, state in STATES.items()}


def test_a_block_sbd_state_of_twelve_qubits_is_fused(maximal):
    assert any(STATES[name].n_subsystems >= 12 and result.diagnostics.path == "block-sbd"
               for name, result in maximal.items())


@pytest.mark.parametrize("name", list(STATES))
def test_fusion_refines_the_maximal_decomposition(name, maximal):
    state, full = STATES[name], maximal[name].decomposition
    size = state.n_subsystems
    pairs = [(a, a + 1) for a in range(size - 1)] + [(0, size - 1)]  # the last is not adjacent
    for a, b in pairs:
        fused, index = fuse(state, a, b)
        fine = maximal_decomposition(fused).decomposition
        assert fine.n_branches >= full.n_branches, (a, b)
        slack = entropy_slack(full.weights) + entropy_slack(fine.weights)
        assert weight_entropy(fine.weights) >= weight_entropy(full.weights) - slack, (a, b)
        if fused.n_subsystems < 3:
            continue
        n = min(index)  # a party the fusion left alone
        spec = local_spectrum(state, n)
        assert spec.eigenvalues[spec.support_rank - 1] >= LAMBDA_MIN
        for branch in fine.branches:
            inner = branch.supports[index[n]]
            overlap = max(np.linalg.norm(outer.supports[n].conj().T @ inner) ** 2
                          for outer in full.branches) / inner.shape[1]
            assert overlap >= 1 - OVERLAP_ATOL, (a, b, overlap)


@pytest.mark.parametrize("name", list(STATES))
def test_a_record_party_leaves_the_weights(name, maximal):
    full = maximal[name].decomposition
    recorded = maximal_decomposition(with_record(full)).decomposition
    assert recorded.n_branches == full.n_branches
    assert np.max(np.abs(np.sort(recorded.weights) - np.sort(full.weights))) <= RECORD_ATOL
