import dataclasses
import math

import numpy as np
import pytest

from lodecomp import decomposition
from lodecomp.tolerances import DEFAULT_TOLERANCES, Tolerances

CUTOFFS = ["t_deg", "t_supp", "t_edge"]


def test_defaults_are_valid():
    assert Tolerances() == DEFAULT_TOLERANCES


@pytest.mark.parametrize("name", CUTOFFS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0, True, "1e-8", None])
def test_cutoff_must_be_finite_and_positive(name, value):
    with pytest.raises(ValueError, match=name):
        Tolerances(**{name: value})


@pytest.mark.parametrize("name", CUTOFFS)
@pytest.mark.parametrize("value", [1e-300, 0.5, 2, np.float64(1e-9)])
def test_positive_cutoffs_are_accepted(name, value):
    assert getattr(Tolerances(**{name: value}), name) == value



@pytest.mark.parametrize(
    "name, value",
    [("W_MIN", 1e-12), ("T_NINDEP", 1e-8), ("SBD_STABLE_ROUNDS", 3), ("SBD_SEED", 0)],
)
def test_fixed_thresholds_keep_their_values(name, value):
    # the report's tolerance block lists these beside the cutoffs, and its
    # diagnostics the SBD seed, so a changed value would change report bytes
    constant = getattr(decomposition, name)
    assert constant == value and type(constant) is type(value)


def test_default_t_deg_is_the_split_gap():
    # SBD cuts its draws at SBD_SPLIT_GAP, where it cut at t_deg before, so
    # every report at default tolerances keeps its bytes
    assert decomposition.SBD_SPLIT_GAP == DEFAULT_TOLERANCES.t_deg


@pytest.mark.parametrize("name, value", [("w_min", 1e-12), ("t_nindep", 1e-8), ("sbd_stable_rounds", 3)])
def test_fixed_thresholds_are_not_fields(name, value):
    # not even their own value is accepted, by construction or by replace
    with pytest.raises(TypeError, match=name):
        Tolerances(**{name: value})
    with pytest.raises(TypeError, match=name):
        dataclasses.replace(DEFAULT_TOLERANCES, **{name: value})
