"""Integer arguments: a float, NaN, infinity or string is a ConfigurationError.

Each case used to pass an ``int(x) != x`` check, or to crash inside it,
and then failed deep in numpy with a raw TypeError, ValueError or
OverflowError.
"""

import math

import numpy as np
import pytest

from cbopt import (
    CboParams,
    decay_experiment,
    simplex,
    simplex_lattice,
    sphere,
    synthetic_market,
)
from cbopt.errors import ConfigurationError


def params(**overrides):
    kwargs = dict(lam=1.0, sigma=0.5, beta=10.0, h=0.1, n_particles=4)
    kwargs.update(overrides)
    return CboParams(**kwargs)


def test_float_particle_count_is_rejected():
    with pytest.raises(ConfigurationError, match="n_particles must be an integer >= 2"):
        params(n_particles=4.0)


def test_float_seed_is_rejected():
    with pytest.raises(ConfigurationError, match="seed must be a nonnegative integer"):
        params(seed=3.0)


def test_infinite_iteration_cap_is_rejected():
    with pytest.raises(ConfigurationError, match="max_iters must be an integer >= 0"):
        params(max_iters=math.inf)


def test_nan_seed_is_rejected():
    with pytest.raises(ConfigurationError, match="seed must be a nonnegative integer"):
        params(seed=math.nan)


def test_string_simplex_dimension_is_rejected():
    with pytest.raises(ConfigurationError, match="simplex dimension must be a positive integer"):
        simplex("abc")


def test_float_decay_run_count_is_rejected():
    proj = simplex(3)
    with pytest.raises(ConfigurationError, match="runs must be a positive integer"):
        decay_experiment(sphere(proj.project(np.zeros(3))), proj, params(), runs=2.0,
                         horizon=3, seed=1)


def test_float_lattice_dimension_is_rejected():
    with pytest.raises(ConfigurationError, match="d must be a positive integer"):
        simplex_lattice(2.0, 0.5)


def test_float_price_row_count_is_rejected():
    with pytest.raises(ConfigurationError, match="n_periods must be an integer >= 2"):
        synthetic_market(1, 3, 10.0, np.zeros(3), np.eye(3))


@pytest.mark.parametrize("value", [4, np.int64(4), np.uint8(4)])
def test_python_and_numpy_integers_are_accepted(value):
    assert params(n_particles=value).n_particles == value


def test_bool_is_not_an_integer():
    with pytest.raises(ConfigurationError, match="seed must be a nonnegative integer"):
        params(seed=True)
