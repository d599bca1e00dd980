"""Numerical tolerances used throughout the decomposition pipeline."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    """The cutoffs a caller sets, one per ``--tol-*`` flag of the CLI.

    Every cutoff must be a finite number > 0; anything else raises
    ``ValueError``.  The other thresholds are constants of
    :mod:`lodecomp.decomposition`, so no caller can loosen them:
    ``W_MIN``, ``T_NINDEP``, ``SBD_STABLE_ROUNDS`` and ``SBD_SPLIT_GAP``.

    Attributes
    ----------
    t_deg : float
        Degeneracy clustering tolerance: eigenvalues closer than this are
        treated as indistinguishable.
    t_supp : float
        Support membership cutoff: eigenvalues / squared singular values at
        or below this count as zero.
    t_edge : float
        Correlation-graph edge threshold on squared joint-projection norms
        (relative to a unit-norm state); also the cross-block cutoff in the
        block-diagonalization search, relative to the cluster's weight.
    """

    t_deg: float = 1e-8
    t_supp: float = 1e-10
    t_edge: float = 1e-10

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not (
                isinstance(value, numbers.Real) and 0 < value < math.inf
            ):
                raise ValueError(f"{f.name} must be a finite number > 0, got {value!r}")


DEFAULT_TOLERANCES = Tolerances()
