"""The batched (R, N, d) decay stack against the whole-array decay loop in
``oracles``, and batched consensus against one run at a time."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cbopt import (
    CboParams,
    Ensemble,
    NoiseMode,
    cbo_step,
    check_params,
    consensus_point,
    decay_experiment,
    laplace_sweep,
    rastrigin,
    simplex,
    sphere,
)
from cbopt.errors import ConfigurationError
from conftest import assert_same_bits, projector_for


@settings(max_examples=60, deadline=None)
@given(
    runs=st.integers(1, 6),
    n=st.integers(2, 6),
    d=st.integers(1, 5),
    mode=st.sampled_from(list(NoiseMode)),
    kind=st.sampled_from(["simplex", "box", "ball"]),
    rastrigin_objective=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_decay_matches_the_whole_array_loop(
    runs, n, d, mode, kind, rastrigin_objective, seed
):
    params = CboParams(lam=1.0, sigma=0.5, beta=100.0, h=0.1, n_particles=n, noise_mode=mode)
    projector = projector_for(kind, d)
    center = np.linspace(-0.4, 0.6, d)
    objective = rastrigin(center, 0.5) if rastrigin_objective else sphere(center)
    horizon = 6
    report = decay_experiment(objective, projector, params, runs, horizon, seed)
    pair, cons_sq, var0 = oracles.decay(objective, projector, params, runs, horizon, seed)

    assert_same_bits(report.mean_pairwise_sq, pair)
    assert_same_bits(report.mean_consensus_sq, cons_sq)
    assert report.initial_variance == var0
    factors = np.concatenate(
        [[1.0], np.cumprod(np.full(horizon, math.exp(-params.h * check_params(params).m)))]
    )
    slack = 1.0 + 5.0 / math.sqrt(runs)
    assert np.array_equal(report.pairwise_ok, pair <= pair[0] * factors * slack)
    bound = 2.0 * ((n - 1) / n) ** 2 * var0 * factors
    assert np.array_equal(report.consensus_ok, cons_sq <= bound * slack)


@settings(max_examples=60, deadline=None)
@given(
    runs=st.integers(1, 6),
    n=st.integers(2, 64),
    d=st.integers(1, 8),
    beta=st.floats(0.0, 1e4),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_consensus_rows_equal_the_unbatched_points(runs, n, d, beta, seed):
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(runs, n, d))
    vals = rng.normal(size=(runs, n))
    batched = consensus_point(Ensemble(pos, vals), beta)
    assert batched.shape == (runs, d)
    for r in range(runs):
        np.testing.assert_array_equal(batched[r], consensus_point(Ensemble(pos[r], vals[r]), beta))


def test_single_run_entry_points_reject_a_batched_ensemble():
    params = CboParams(lam=1.0, sigma=0.5, beta=10.0, h=0.1, n_particles=3)
    batched = Ensemble(np.full((2, 3, 2), 0.5), np.zeros((2, 3)))
    with pytest.raises(ConfigurationError):
        cbo_step(batched, params, simplex(2), sphere(np.zeros(2)), np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        laplace_sweep(batched, [0.0, 1.0])
