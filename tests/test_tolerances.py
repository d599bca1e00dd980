import math

import numpy as np
import pytest

from lodecomp.tolerances import DEFAULT_TOLERANCES, Tolerances

CUTOFFS = ["t_deg", "t_supp", "t_edge", "w_min", "t_nindep"]


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


@pytest.mark.parametrize("value", [0, -3, True, 2.0, 3.5, "3", None])
def test_stable_rounds_must_be_a_positive_integer(value):
    with pytest.raises(ValueError, match="sbd_stable_rounds"):
        Tolerances(sbd_stable_rounds=value)


def test_stable_rounds_accepts_positive_integers():
    assert Tolerances(sbd_stable_rounds=1).sbd_stable_rounds == 1
