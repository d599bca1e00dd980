"""Global entanglement from the weights of the maximal branch decomposition.

The measure is the Shannon entropy of the maximal decomposition's branch
weights.  It vanishes exactly when the state has a single maximal branch,
reduces to the entropy of entanglement for two subsystems, and is
invariant under local unitaries and under pairwise unitaries that are
block-diagonal with respect to the branch subspace pairs.
"""

from __future__ import annotations

import math

from .decomposition import maximal_decomposition
from .tensor import StateTensor
from .tolerances import DEFAULT_TOLERANCES, Tolerances


def weight_entropy(weights) -> float:
    """Shannon entropy in bits of branch weights renormalized to sum to 1,
    with 0 log 0 taken as 0.

    The weights sum to 1 only up to roundoff, and a sum a hair above 1
    would yield a tiny negative entropy, so the total in nats is clamped
    at zero: a single branch gives exactly 0 bits.  ValueError unless
    every weight is finite and nonnegative and their sum is above 0.
    """
    total = sum(weights)
    if not (all(math.isfinite(w) and w >= 0 for w in weights) and total > 0):
        raise ValueError("weights must be finite and nonnegative with a sum above 0")
    nats = 0.0
    for w in weights:
        w = float(w / total)
        if w > 0:
            nats -= w * math.log(w)
    return max(nats, 0.0) / math.log(2.0)


def e_lo(state: StateTensor, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Shannon entropy (in bits) of the maximal decomposition's weights."""
    return weight_entropy(maximal_decomposition(state, tol).decomposition.weights)
