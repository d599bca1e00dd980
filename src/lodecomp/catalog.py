"""Generators for the reference states used throughout the library and tests.

Covers the named multipartite examples (GHZ, W, weighted diagonal states,
the three pairwise-entangled counterexamples) plus seeded random families.
Every generator is deterministic given its arguments and seed; a seed is
an integer (``None`` raises ValueError, it never draws fresh entropy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import StateTensor, _dims, _index, apply_matrix_at

KINDS = ("ghz", "w", "z", "u", "v", "x", "product", "random", "random_local_dressing")

WEIGHT_SUM_ATOL = 1e-9


@dataclass(frozen=True)
class StateSpec:
    """Declarative recipe for a catalog state.

    Only the fields a kind actually consumes may be set; the rest must be
    left at None, which means unset (an unset seed is 0).  ``base`` names
    the state that ``random_local_dressing`` dresses with seeded random
    local unitaries.
    """

    kind: str
    n_subsystems: int | None = None
    dims: tuple | None = None
    weights: tuple | None = None
    seed: int | None = None
    split: int | None = None
    base: "StateSpec | None" = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown state kind {self.kind!r}; expected one of {KINDS}")
        for name in ("n_subsystems", "seed", "split"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _index(getattr(self, name), name))
        if self.dims is not None:
            object.__setattr__(self, "dims", _dims(self.dims))
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))


def ghz_state(n_subsystems: int = 3, dim: int = 2) -> StateTensor:
    """(|0...0> + |1...1> + ... + |d-1 ... d-1>)/sqrt(d) on n equal subsystems."""
    n_subsystems, dim = _index(n_subsystems, "n_subsystems"), _index(dim, "dim")
    if n_subsystems < 2 or dim < 2:
        raise ValueError("ghz needs at least two subsystems of dimension at least 2")
    dims = (dim,) * n_subsystems
    amps = np.zeros(dims, dtype=np.complex128)
    for a in range(dim):
        amps[(a,) * n_subsystems] = 1.0
    return StateTensor(dims, amps.reshape(-1) / math.sqrt(dim))


def w_state(n_subsystems: int = 3) -> StateTensor:
    """Equal superposition of the single-excitation qubit basis states."""
    n_subsystems = _index(n_subsystems, "n_subsystems")
    if n_subsystems < 2:
        raise ValueError("w needs at least two subsystems")
    dims = (2,) * n_subsystems
    amps = np.zeros(dims, dtype=np.complex128)
    for k in range(n_subsystems):
        amps[(0,) * k + (1,) + (0,) * (n_subsystems - k - 1)] = 1.0
    return StateTensor(dims, amps.reshape(-1) / math.sqrt(n_subsystems))


def z_state(weights, n_subsystems: int = 3, dims=None) -> StateTensor:
    """Weighted diagonal state sum_i sqrt(p_i) |i>^(xN).

    The weights must sum to 1 and there must be at least as many levels on
    every subsystem as there are weights.
    """
    weights = [float(w) for w in weights]
    if not weights or any(not w >= 0 for w in weights):  # so NaN fails too
        raise ValueError("weights must be nonempty and nonnegative")
    if not abs(sum(weights) - 1.0) <= WEIGHT_SUM_ATOL:
        raise ValueError(f"weights must sum to 1, got {sum(weights)}")
    if dims is None:
        dims = (len(weights),) * _index(n_subsystems, "n_subsystems")
    dims = _dims(dims)
    if len(dims) < 2:
        raise ValueError("need at least two subsystems")
    if len(weights) > min(dims):
        raise ValueError(f"{len(weights)} weights do not fit in dims {dims}")
    amps = np.zeros(dims, dtype=np.complex128)
    for a, w in enumerate(weights):
        amps[(a,) * len(dims)] = math.sqrt(w)
    return StateTensor(dims, amps.reshape(-1))


def u_state() -> StateTensor:
    """A Bell pair on the first two qubits with an uncorrelated third."""
    amps = np.zeros((2, 2, 2), dtype=np.complex128)
    amps[0, 0, 0] = amps[1, 1, 0] = 1.0
    return StateTensor((2, 2, 2), amps.reshape(-1) / math.sqrt(2))


def v_state() -> StateTensor:
    """Two entangled qubits shared along a chain: (0,1) and (1,2).

    Subsystem dimensions are (2, 4, 2); the middle subsystem holds both
    shared qubits, with levels 0..3 appearing as in the defining expansion
    (|00> + |21>) for the first level of subsystem 0 and (|10> + |31>) for
    the second.  All three reduced states are mixed, yet the state has no
    nontrivial locally orthogonal decomposition.
    """
    dims = (2, 4, 2)
    amps = np.zeros(dims, dtype=np.complex128)
    for multi in ((0, 0, 0), (0, 2, 1), (1, 1, 0), (1, 3, 1)):
        amps[multi] = 1.0
    return StateTensor(dims, amps.reshape(-1) / 2.0)


def x_state() -> StateTensor:
    """Three Bell pairs shared pairwise around a ring of three parties.

    Each party holds two qubits, one entangled with each neighbor, giving
    local dimension 4.  Within a party the first (slow) qubit pairs with
    the left neighbor and the second with the right neighbor.
    """
    dims = (4, 4, 4)
    amps = np.zeros(dims, dtype=np.complex128)
    # qubits around the ring: party A = (q0, q1), B = (q2, q3), C = (q4, q5);
    # Bell pairs on (q1, q2), (q3, q4), (q5, q0)
    for b_ab in range(2):
        for b_bc in range(2):
            for b_ca in range(2):
                a = 2 * b_ca + b_ab
                b = 2 * b_ab + b_bc
                c = 2 * b_bc + b_ca
                amps[a, b, c] = 1.0
    return StateTensor(dims, amps.reshape(-1) / math.sqrt(8))


def _rng(seed) -> np.random.Generator:
    """A generator seeded with ``seed``: an integer by :func:`_index`, and nonnegative."""
    seed = _index(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    return np.random.default_rng(seed)


def random_state(dims, seed: int = 0) -> StateTensor:
    """Normalized complex Gaussian amplitudes: rotation-invariant ensemble."""
    dims = _dims(dims)
    rng = _rng(seed)
    total = math.prod(dims)
    amps = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return StateTensor(dims, amps / np.linalg.norm(amps))


def product_state(dims, split: int = 1, seed: int = 0) -> StateTensor:
    """Tensor product of two independent random states across one split.

    Either factor may cover a single subsystem, so the factors are drawn
    as raw normalized Gaussian vectors and only the product is a state.
    """
    dims, split = _dims(dims), _index(split, "split")
    if not 1 <= split <= len(dims) - 1:
        raise ValueError(f"split must fall strictly inside dims, got {split}")
    rng = _rng(seed)

    def factor(size):
        vec = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return vec / np.linalg.norm(vec)

    left = factor(math.prod(dims[:split]))
    right = factor(math.prod(dims[split:]))
    return StateTensor(dims, np.kron(left, right))


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    dim = _index(dim, "dim")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def dress_state(state: StateTensor, seed: int = 0) -> StateTensor:
    """Apply an independent seeded random unitary to every subsystem."""
    rng = _rng(seed)
    amps = state.amps
    for n, d in enumerate(state.dims):
        amps = apply_matrix_at(amps, state.dims, n, haar_unitary(d, rng))
    return StateTensor(state.dims, amps)


def _require(spec: StateSpec, allowed: set):
    given = {
        name
        for name in ("n_subsystems", "dims", "weights", "seed", "split", "base")
        if getattr(spec, name) is not None
    }
    extra = given - allowed
    if extra:
        raise ValueError(f"kind {spec.kind!r} does not accept parameters {sorted(extra)}")


def generate(spec: StateSpec) -> StateTensor:
    """Build the state a :class:`StateSpec` describes.

    Raises ValueError for parameters that do not fit the kind.
    """
    kind = spec.kind
    # subsystem count of ghz, w and z; an explicit 0 is given, not missing
    n = spec.n_subsystems if spec.n_subsystems is not None else (len(spec.dims or ()) or 3)
    if kind == "ghz":
        _require(spec, {"n_subsystems", "dims"})
        dim = 2
        if spec.dims is not None:
            if len(set(spec.dims)) != 1 or len(spec.dims) != n:
                raise ValueError("ghz requires equal dims matching n_subsystems")
            dim = spec.dims[0]
        return ghz_state(n, dim)
    if kind == "w":
        _require(spec, {"n_subsystems", "dims"})
        if spec.dims is not None and spec.dims != (2,) * n:
            raise ValueError("w is defined on qubits only")
        return w_state(n)
    if kind == "z":
        _require(spec, {"n_subsystems", "dims", "weights"})
        if spec.weights is None:
            raise ValueError("z requires weights")
        if spec.dims is not None and len(spec.dims) != n:
            raise ValueError("dims length must match n_subsystems")
        return z_state(spec.weights, n, spec.dims)
    if kind in ("u", "v", "x"):
        _require(spec, set())
        return {"u": u_state, "v": v_state, "x": x_state}[kind]()
    if kind == "product":
        _require(spec, {"dims", "split", "seed"})
        if spec.dims is None:
            raise ValueError("product requires dims")
        return product_state(spec.dims, 1 if spec.split is None else spec.split, spec.seed or 0)
    if kind == "random":
        _require(spec, {"dims", "seed"})
        if spec.dims is None:
            raise ValueError("random requires dims")
        return random_state(spec.dims, spec.seed or 0)
    # random_local_dressing: StateSpec has rejected every kind not in KINDS
    _require(spec, {"base", "seed"})
    if spec.base is None:
        raise ValueError("random_local_dressing requires a base spec")
    return dress_state(generate(spec.base), spec.seed or 0)
