"""Seeded benchmark inputs whose maximal decomposition is known by construction.

Every state is a sum of branches living in mutually orthogonal coordinate
blocks on every subsystem, dressed by an independent Haar unitary U_n on
each subsystem.  Its finest locally orthogonal decomposition is therefore
known without running the program: the branch weights are the ones drawn
here, and branch i's support on subsystem n is U_n Pi_i U_n^dagger, where
Pi_i projects onto branch i's coordinate block.  This module uses numpy
only; it does not import the package under test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

STATES_PER_ROUND = 4


@dataclass(frozen=True)
class Case:
    """One benchmark input and the answer the program must reproduce."""

    dims: tuple
    amps: np.ndarray
    weights: np.ndarray  # descending
    blocks: tuple  # blocks[i][n]: coordinate indices of branch i on subsystem n
    unitaries: tuple  # unitaries[n]: the dressing on subsystem n

    def projector(self, branch: int, n: int) -> np.ndarray:
        u = self.unitaries[n][:, list(self.blocks[branch][n])]
        return u @ u.conj().T

    @property
    def entropy_bits(self) -> float:
        return -sum(float(w) * math.log2(float(w)) for w in self.weights)


def haar_unitary(dim: int, rng) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _dress(core: np.ndarray, dims, rng):
    unitaries = tuple(haar_unitary(d, rng) for d in dims)
    arr = core.reshape(dims)
    for n, u in enumerate(unitaries):
        arr = np.moveaxis(np.tensordot(u, arr, axes=([1], [n])), 0, n)
    return arr.reshape(-1), unitaries


def _ghz_core(weights, dims) -> np.ndarray:
    """sum_i sqrt(w_i) |i i ... i>."""
    core = np.zeros(dims, dtype=np.complex128)
    for i, w in enumerate(weights):
        core[(i,) * len(dims)] = math.sqrt(w)
    return core.reshape(-1)


def _bell_ring() -> np.ndarray:
    """Three Bell pairs around a ring of three parties, each party two qubits."""
    ring = np.zeros((4, 4, 4), dtype=np.complex128)
    for b_ab in range(2):
        for b_bc in range(2):
            for b_ca in range(2):
                ring[2 * b_ca + b_ab, 2 * b_ab + b_bc, 2 * b_bc + b_ca] = 1.0
    return ring / math.sqrt(8)


def _nondegenerate(rng) -> Case:
    # weights ~ i + 1 with jitter: adjacent gaps stay above ~5e-3, far from t_deg
    raw = np.arange(1, 13) + rng.uniform(-0.3, 0.3, 12)
    weights = np.sort(raw / raw.sum())[::-1]
    dims = (12, 12, 12)
    amps, unitaries = _dress(_ghz_core(weights, dims), dims, rng)
    blocks = tuple(((i,),) * 3 for i in range(12))
    return Case(dims, amps, weights, blocks, unitaries)


def _degenerate(rng) -> Case:
    # two branches, each the Bell-pair ring in its own 4-dim block on every
    # party; every local spectrum is w/4 repeated four times per branch
    p = rng.uniform(0.6, 0.8)
    weights = np.array([p, 1.0 - p])
    dims = (8, 8, 8)
    core = np.zeros(dims, dtype=np.complex128)
    ring = _bell_ring()
    core[:4, :4, :4] = math.sqrt(weights[0]) * ring
    core[4:, 4:, 4:] = math.sqrt(weights[1]) * ring
    amps, unitaries = _dress(core.reshape(-1), dims, rng)
    blocks = (((0, 1, 2, 3),) * 3, ((4, 5, 6, 7),) * 3)
    return Case(dims, amps, weights, blocks, unitaries)


def _many_qubits(rng) -> Case:
    p = rng.uniform(0.6, 0.85)
    weights = np.array([p, 1.0 - p])
    dims = (2,) * 13
    amps, unitaries = _dress(_ghz_core(weights, dims), dims, rng)
    blocks = (((0,),) * 13, ((1,),) * 13)
    return Case(dims, amps, weights, blocks, unitaries)


# workload name -> (id mixed into the seed, builder of one state)
WORKLOADS = {
    "nondegenerate": (1, _nondegenerate),
    "degenerate": (2, _degenerate),
    "many-qubits": (3, _many_qubits),
}


def make_cases(workload: str, seed: int) -> list:
    """The workload's states for one seed: the same seed gives the same states."""
    ident, build = WORKLOADS[workload]
    rng = np.random.default_rng([ident, seed])
    return [build(rng) for _ in range(STATES_PER_ROUND)]


def state_json(case: Case) -> str:
    """The state in the package's state-file format (schema_version 1)."""
    document = {
        "schema_version": 1,
        "dims": list(case.dims),
        "amps": [[float(a.real), float(a.imag)] for a in case.amps],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
