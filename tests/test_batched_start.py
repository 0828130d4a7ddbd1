"""The batched decay start against R separate ``init_ensemble`` calls.

``decay_experiment`` draws every run's start from the run's own seed, as
``init_ensemble`` does, but projects all R·N rows in one call and then
evaluates each run on its own.  These tests pin the positions and values
bit for bit to R separate ``init_ensemble`` calls and to the per-run
expression both replaced, kept below as the reference, and every bad
argument to the error ``init_ensemble`` raised for it.
"""

import re

import numpy as np
import pytest

from cbopt import (
    CboParams,
    NoiseMode,
    box,
    decay_experiment,
    diagnostics,
    init_ensemble,
    neg_sharpe,
    rastrigin,
    simplex,
    sphere,
)
from cbopt.core import _start_mean, _starts
from cbopt.errors import ConfigurationError, NumericDomainError


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(bits(got), bits(want))


def params(n=8, mode=NoiseMode.COMMON):
    return CboParams(lam=1.0, sigma=0.3, beta=50.0, h=0.05, n_particles=n, seed=3,
                     noise_mode=mode)


def problems(market3):
    """(projector, objective, init_mean, init_std): the default start on the
    simplex, and a shifted, widened one on a box; N·d is odd for the box, so
    its runs sit at every 8-byte offset of the batched array."""
    return [
        (simplex(3), neg_sharpe(market3), None, 1.0),
        (box(np.full(5, -2.0), np.full(5, 3.0)), rastrigin(np.full(5, 0.25)),
         np.array([0.5, -0.25, 1.0, 0.0, -0.0]), 2.5),
    ]


def start_reference(dim, params, init_mean, init_std, projector, objective, seed):
    """The body of ``init_ensemble`` before the batched start, verbatim
    (its argument checks aside)."""
    if init_mean is None:
        init_mean = projector.project(np.zeros(dim))
    mean = np.asarray(init_mean, dtype=float)
    rng = np.random.default_rng(params.seed if seed is None else seed)
    raw = rng.standard_normal((params.n_particles, dim))
    raw *= init_std
    raw += mean
    positions = projector.project_rows(raw)
    return positions, objective.eval_many(positions)


def run_seeds(runs, seed=11):
    return [s for s, _ in (c.spawn(2) for c in np.random.SeedSequence(seed).spawn(runs))]


@pytest.mark.parametrize("runs", [1, 3, 200])
@pytest.mark.parametrize("mode", list(NoiseMode))
@pytest.mark.parametrize("which", [0, 1])
def test_batched_start_equals_separate_init_ensemble_calls(market3, runs, mode, which):
    projector, objective, init_mean, init_std = problems(market3)[which]
    p = params(n=7 if which else 8, mode=mode)
    seeds = run_seeds(runs)
    mean = _start_mean(projector.dim, init_mean, init_std, projector, objective)
    positions, values = _starts(p, mean, init_std, projector, objective, seeds)
    assert positions.shape == (runs, p.n_particles, projector.dim)
    for r, seed in enumerate(seeds):
        ens = init_ensemble(projector.dim, p, init_mean, init_std, projector, objective,
                            seed=seed)
        want_positions, want_values = start_reference(
            projector.dim, p, init_mean, init_std, projector, objective, seed
        )
        for got in (positions[r], ens.positions):
            assert_same_bits(got, want_positions)
        for got in (values[r], ens.objective_values):
            assert_same_bits(got, want_values)


@pytest.mark.parametrize("which", [0, 1])
def test_decay_report_equals_one_built_from_separate_starts(market3, monkeypatch, which):
    projector, objective, init_mean, init_std = problems(market3)[which]
    p = params()
    kwargs = dict(runs=5, horizon=4, seed=21, init_mean=init_mean, init_std=init_std)
    batched = decay_experiment(objective, projector, p, **kwargs)

    def separate_starts(params, mean, std, proj, obj, seeds):
        starts = [init_ensemble(proj.dim, params, mean, std, proj, obj, seed=s) for s in seeds]
        return (np.stack([e.positions for e in starts]),
                np.stack([e.objective_values for e in starts]))

    monkeypatch.setattr(diagnostics, "_starts", separate_starts)
    reference = decay_experiment(objective, projector, p, **kwargs)
    for field in ("mean_pairwise_sq", "pairwise_bound", "mean_consensus_sq",
                  "consensus_bound"):
        assert_same_bits(getattr(batched, field), getattr(reference, field))
    assert batched.initial_variance == reference.initial_variance


def decay(projector, objective, init_mean=None, init_std=1.0):
    return decay_experiment(objective, projector, params(), runs=3, horizon=2, seed=5,
                            init_mean=init_mean, init_std=init_std)


def init(projector, objective, init_mean=None, init_std=1.0, dim=None):
    dim = projector.dim if dim is None else dim
    return init_ensemble(dim, params(), init_mean, init_std, projector, objective)


def raises(kind, message):
    return pytest.raises(kind, match="^" + re.escape(message) + "$")


def test_a_projector_dimension_mismatch_is_the_same_error():
    with raises(ConfigurationError, "projector dimension 3 does not match dim=4"):
        init(simplex(3), sphere(np.zeros(3)), dim=4)


@pytest.mark.parametrize("std", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("entry", [init, decay])
def test_a_bad_init_std_is_the_same_error(std, entry):
    with raises(ConfigurationError, "init_std must be finite and > 0"):
        entry(simplex(3), sphere(np.zeros(3)), init_std=std)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [init, decay])
def test_a_non_finite_init_mean_is_the_same_error(bad, entry):
    with raises(ConfigurationError, "init_mean must be a finite 3-vector"):
        entry(simplex(3), sphere(np.zeros(3)), init_mean=np.array([0.5, bad, 0.5]))


@pytest.mark.parametrize("entry", [init, decay])
def test_a_start_that_overflows_is_the_same_error(entry):
    with np.errstate(over="ignore"):
        with raises(NumericDomainError, "projection input contains non-finite entries"):
            entry(simplex(3), sphere(np.zeros(3)), init_mean=np.full(3, 1e308),
                  init_std=1.7e308)


@pytest.mark.parametrize("entry", [init, decay])
def test_a_start_with_a_non_finite_value_is_the_same_error(entry):
    unbounded = box(np.full(3, -np.inf), np.full(3, np.inf))
    with np.errstate(over="ignore"):
        with raises(NumericDomainError, "non-finite objective value at iteration 0"):
            entry(unbounded, sphere(np.zeros(3)), init_mean=np.full(3, 1e200))
