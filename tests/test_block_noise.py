"""Noise drawn for a block of steps at once, against one draw per step.

The decay stack draws each run's noise for a block of steps at a time;
``oracles.decay`` draws it one step at a time.
"""

import numpy as np
import pytest

import oracles
from cbopt import CboParams, NoiseMode, decay_experiment, draw_step_noise, sphere
from cbopt import diagnostics
from cbopt.errors import ConfigurationError
from conftest import objective_for, projector_for


def _params(mode, n=3):
    return CboParams(lam=1.0, sigma=0.5, beta=100.0, h=0.1, n_particles=n, noise_mode=mode)


@pytest.mark.parametrize("mode", list(NoiseMode))
@pytest.mark.parametrize("steps", [1, 2, 7])
def test_a_block_of_steps_holds_the_successive_single_step_draws(mode, steps):
    params, d = _params(mode), 5
    block = draw_step_noise(params, d, np.random.default_rng(3), steps=steps)
    rng = np.random.default_rng(3)
    expected = np.stack([draw_step_noise(params, d, rng) for _ in range(steps)])
    assert block.shape == ((steps, d) if mode is NoiseMode.COMMON else (steps, 3, d))
    assert np.array_equal(block, expected)

    runs = 4
    block = draw_step_noise(params, d, [np.random.default_rng(s) for s in range(runs)],
                            steps=steps)
    gens = [np.random.default_rng(s) for s in range(runs)]
    expected = np.stack([draw_step_noise(params, d, gens) for _ in range(steps)], axis=1)
    assert block.shape == (runs, steps) + expected.shape[2:]
    assert np.array_equal(block, expected)
    # Each Generator is left where K single-step draws leave it.
    again = draw_step_noise(params, d, [np.random.default_rng(s) for s in range(runs)],
                            steps=steps + 1)
    assert np.array_equal(again[:, steps], draw_step_noise(params, d, gens))


@pytest.mark.parametrize("mode", list(NoiseMode))
def test_one_step_for_many_runs_equals_a_stack_of_single_run_draws(mode):
    params, d = _params(mode), 4
    values = draw_step_noise(params, d, (np.random.default_rng(s) for s in range(3)))
    expected = np.stack([np.random.default_rng(s).standard_normal(values.shape[1:])
                         for s in range(3)])
    assert np.array_equal(values, expected)


@pytest.mark.parametrize("steps", [0, -1, 2.0, 2.5, "2", True, np.float64(3.0)])
def test_bad_step_counts_are_rejected(steps):
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        draw_step_noise(_params(NoiseMode.COMMON), 3, rng, steps=steps)
    with pytest.raises(ConfigurationError):
        draw_step_noise(_params(NoiseMode.INDEPENDENT), 3, [rng], steps=steps)


def test_numpy_integer_step_counts_are_accepted():
    noise = draw_step_noise(_params(NoiseMode.COMMON), 3, np.random.default_rng(0),
                            steps=np.int64(2))
    assert noise.shape == (2, 3)


def _cells_for(block_steps, runs, n, d, mode):
    """A ``_NOISE_CELLS`` that gives blocks of ``block_steps`` steps."""
    per_step = runs * (d if mode is NoiseMode.COMMON else n * d)
    return block_steps * per_step


@pytest.mark.parametrize("kind", ["simplex", "box", "ball"])
@pytest.mark.parametrize("mode", list(NoiseMode))
@pytest.mark.parametrize(("block_steps", "horizon"), [(1, 5), (3, 7), (3, 6), (50, 7), (3, 0)])
def test_block_noise_decay_equals_the_per_step_loop_bit_for_bit(
    monkeypatch, kind, mode, block_steps, horizon
):
    runs, n, d, seed = 4, 3, 3, 12345
    params = _params(mode, n)
    projector, objective = projector_for(kind, d), objective_for(kind, d)
    monkeypatch.setattr(diagnostics, "_NOISE_CELLS", _cells_for(block_steps, runs, n, d, mode))
    draws = []
    real_draw = diagnostics.draw_step_noise

    def counting_draw(*args, **kwargs):
        draws.append(kwargs.get("steps"))
        return real_draw(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "draw_step_noise", counting_draw)
    report = decay_experiment(objective, projector, params, runs, horizon, seed)
    pair, cons_sq, var0 = oracles.decay(objective, projector, params, runs, horizon, seed)

    assert np.array_equal(report.mean_pairwise_sq, pair)
    assert np.array_equal(report.mean_consensus_sq, cons_sq)
    assert report.initial_variance == var0
    # One draw per block, none past the horizon.
    full, rest = divmod(horizon, block_steps)
    assert draws == [block_steps] * full + ([rest] if rest else [])


def test_the_default_block_size_gives_the_per_step_loop():
    runs, n, d, horizon, seed = 200, 8, 4, 43, 9
    for mode in NoiseMode:
        params = _params(mode, n)
        projector = projector_for("simplex", d)
        objective = sphere(np.full(d, 0.25))
        per_step = runs * (d if mode is NoiseMode.COMMON else n * d)
        assert diagnostics._NOISE_CELLS // per_step < horizon
        report = decay_experiment(objective, projector, params, runs, horizon, seed)
        pair, cons_sq, _ = oracles.decay(objective, projector, params, runs, horizon, seed)
        assert np.array_equal(report.mean_pairwise_sq, pair)
        assert np.array_equal(report.mean_consensus_sq, cons_sq)
