"""Numerical tolerances used throughout the decomposition pipeline."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    """Bundle of cutoffs shared by the spectral and decomposition layers.

    Every cutoff must be a finite number > 0, and ``sbd_stable_rounds`` an
    integer >= 1; anything else raises ``ValueError``.

    Attributes
    ----------
    t_deg : float
        Degeneracy clustering tolerance: eigenvalues closer than this are
        treated as indistinguishable.  Inside an eigenvalue cluster the
        block-diagonalization search applies it relative to the cluster's
        weight.
    t_supp : float
        Support membership cutoff: eigenvalues / squared singular values at
        or below this count as zero.
    t_edge : float
        Correlation-graph edge threshold on squared joint-projection norms
        (relative to a unit-norm state); also the cross-block cutoff in the
        block-diagonalization search, relative to the cluster's weight.
    w_min : float
        Branch weight floor: projected components below this are treated as
        exactly zero.
    t_nindep : float
        Allowed residual between branch vectors extracted via different
        subsystems' support projectors; only ``verify_lo`` reads it, and
        allows (t_nindep - 2e-9) / 2 per subsystem and branch.
    sbd_stable_rounds : int
        Consecutive rounds without a split that end the randomized
        block-diagonalization search of one eigenvalue cluster.
    """

    t_deg: float = 1e-8
    t_supp: float = 1e-10
    t_edge: float = 1e-10
    w_min: float = 1e-12
    t_nindep: float = 1e-8
    sbd_stable_rounds: int = 3

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "sbd_stable_rounds":
                if type(value) is not int or value < 1:
                    raise ValueError(f"sbd_stable_rounds must be an integer >= 1, got {value!r}")
            elif isinstance(value, bool) or not (
                isinstance(value, numbers.Real) and 0 < value < math.inf
            ):
                raise ValueError(f"{f.name} must be a finite number > 0, got {value!r}")


DEFAULT_TOLERANCES = Tolerances()
