"""The batched (R, N, d) step against per-run references built from the
public single-run pieces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbopt import (
    CboParams,
    Ensemble,
    NoiseMode,
    ball,
    box,
    cbo_step,
    check_params,
    consensus_point,
    decay_experiment,
    draw_step_noise,
    init_ensemble,
    laplace_sweep,
    mean_pairwise_sq,
    predictor_step,
    rastrigin,
    simplex,
    sphere,
)
from cbopt.errors import ConfigurationError


def _projector(kind: str, d: int):
    if kind == "simplex":
        return simplex(d)
    if kind == "box":
        return box(np.full(d, -0.5), np.full(d, 1.0))
    return ball(np.full(d, 0.3), 0.8)


def _per_run_reference(objective, projector, params, runs, horizon, seed):
    """decay_experiment's averages, one run at a time, seeded the same way."""
    d = projector.dim
    pair = np.zeros(horizon + 1)
    cons_sq = np.zeros(horizon + 1)
    sum_w0 = np.zeros(d)
    sum_sq0 = 0.0
    for child in np.random.SeedSequence(seed).spawn(runs):
        init_ss, noise_ss = child.spawn(2)
        ens = init_ensemble(d, params, None, 1.0, projector, objective, seed=init_ss)
        rng = np.random.default_rng(noise_ss)
        w0 = ens.positions
        sum_w0 += w0.sum(axis=0)
        sum_sq0 += float((w0 * w0).sum())
        for n in range(horizon + 1):
            pair[n] += mean_pairwise_sq(ens.positions)
            cons = consensus_point(ens, params.beta)
            dev = ens.positions - cons
            cons_sq[n] += float((dev * dev).sum(axis=1).mean())
            if n < horizon:
                noise = draw_step_noise(params, d, rng)
                pos = projector.project_rows(predictor_step(ens, cons, params, noise))
                ens = Ensemble(pos, objective.eval_many(pos), ens.iteration + 1)
    total = runs * params.n_particles
    mean_w0 = sum_w0 / total
    return pair / runs, cons_sq / runs, sum_sq0 / total - float(mean_w0 @ mean_w0)


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
def test_batched_decay_matches_the_per_run_reference(
    runs, n, d, mode, kind, rastrigin_objective, seed
):
    params = CboParams(lam=1.0, sigma=0.5, beta=100.0, h=0.1, n_particles=n, noise_mode=mode)
    projector = _projector(kind, d)
    center = np.linspace(-0.4, 0.6, d)
    objective = rastrigin(center, 0.5) if rastrigin_objective else sphere(center)
    horizon = 6
    report = decay_experiment(objective, projector, params, runs, horizon, seed)
    pair, cons_sq, var0 = _per_run_reference(objective, projector, params, runs, horizon, seed)

    np.testing.assert_allclose(report.mean_pairwise_sq, pair, rtol=1e-12)
    np.testing.assert_allclose(report.mean_consensus_sq, cons_sq, rtol=1e-12)
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
