"""The one step kernel against the loops it replaced, and the guards it keeps.

``run``, ``cbo_step`` and ``decay_experiment`` now share ``core._step``,
whose new ``Ensemble`` checks each step, with one per-run workspace whose
scratch keeps each step's deviation ``w - c``.  ``run_reference``,
``cbo_step_reference`` and ``decay_reference`` below are the loops before
that change, frozen, with every kernel written as its whole-array
expression; every output must keep its bits.
"""

import contextlib
import dataclasses
import math
import warnings

import numpy as np
import pytest

from cbopt import (
    CboParams,
    Ensemble,
    NoiseMode,
    Objective,
    ball,
    box,
    cbo_step,
    decay_experiment,
    draw_step_noise,
    init_ensemble,
    mean_pairwise_sq,
    rastrigin,
    run,
    simplex,
    sphere,
)
from cbopt import core, diagnostics, metaio, projections
from cbopt.cli import main
from cbopt.errors import NumericDomainError


@contextlib.contextmanager
def block_cells(cells):
    saved = metaio._BLOCK_CELLS
    metaio._BLOCK_CELLS = saved if cells is None else cells
    try:
        yield
    finally:
        metaio._BLOCK_CELLS = saved


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(bits(got), bits(want))


# ------------------------------------------------------ the frozen loops


def consensus(ens, beta):
    values = ens.objective_values
    w = np.exp(-beta * (values - values.min(axis=-1, keepdims=True)))
    return np.matmul(w[..., None, :], ens.positions)[..., 0, :] / w.sum(-1)[..., None]


def norms(pos, cons, eta=None):
    t = pos - cons
    if eta is not None:
        t = t * eta
    return np.sqrt((t * t).sum(axis=-1))


def predict(pos, cons, params, eta):
    dev = pos - cons
    return pos - params.lam * params.h * dev + params.sigma * math.sqrt(params.h) * dev * eta


def advance(ens, cons, params, projector, objective, eta):
    """predictor -> corrector -> cache refresh, as ``core._advance`` did."""
    if ens.positions.ndim == 3:
        cons = cons[:, None, :]
        eta = eta if params.noise_mode is NoiseMode.INDEPENDENT else eta[:, None, :]
    raw = predict(ens.positions, cons, params, eta)
    positions = projector.project_rows(raw.reshape(-1, raw.shape[-1]))
    values = objective.eval_many(positions)
    assert np.all(np.isfinite(values))
    return Ensemble(positions.reshape(raw.shape), values.reshape(raw.shape[:-1]),
                    ens.iteration + 1)


def record(ens, cons, residual, best, a_n, b_n):
    com = ens.positions.mean(axis=0)
    return (ens.iteration, cons, mean_pairwise_sq(ens.positions), residual, best, com, a_n, b_n)


def run_reference(objective, projector, params, init_mean=None, init_std=1.0, thin=1):
    init_ss, noise_ss = np.random.SeedSequence(params.seed).spawn(2)
    ens = init_ensemble(projector.dim, params, init_mean, init_std, projector, objective,
                        seed=init_ss)
    rng = np.random.default_rng(noise_ss)
    records = []
    a_sum = b_sum = 0.0
    best_value = math.inf
    best_point = ens.positions[0].copy()
    while True:
        cons = consensus(ens, params.beta)
        pos = ens.positions
        dist = norms(pos, cons)
        residual = float(dist.max())
        a_sum += float(dist.mean())
        i = int(np.argmin(ens.objective_values))
        current = float(ens.objective_values[i])
        if current < best_value:
            best_value = current
            best_point = pos[i].copy()
        stop = residual < params.residual_tol or ens.iteration >= params.max_iters
        if ens.iteration % thin == 0 or stop:
            records.append(record(ens, cons, residual, current, a_sum, b_sum))
        if stop:
            break
        eta = draw_step_noise(params, ens.dim, rng)
        ens = advance(ens, cons, params, projector, objective, eta)
        b_sum += float(norms(pos, cons, eta).mean())
    return ens, records, projector.project(cons), best_point, best_value


def cbo_step_reference(ens, params, projector, objective, rng):
    cons = consensus(ens, params.beta)
    dist = norms(ens.positions, cons)
    rec = record(ens, cons, float(dist.max()), float(ens.objective_values.min()),
                 float(dist.mean()), 0.0)
    eta = draw_step_noise(params, ens.dim, rng)
    return advance(ens, cons, params, projector, objective, eta), rec


def decay_reference(objective, projector, params, runs, horizon, seed):
    """``(mean pairwise, mean consensus)`` squared distances per iteration."""
    dim = projector.dim
    starts = [init_ensemble(dim, params, None, 1.0, projector, objective, seed=s)
              for s, _ in (child.spawn(2) for child in np.random.SeedSequence(seed).spawn(runs))]
    ens = Ensemble(np.stack([e.positions for e in starts]),
                   np.stack([e.objective_values for e in starts]))
    rngs = [np.random.default_rng(n) for _, n in
            (child.spawn(2) for child in np.random.SeedSequence(seed).spawn(runs))]
    step_cells = runs * (dim if params.noise_mode is NoiseMode.COMMON else params.n_particles * dim)
    block_steps = max(1, diagnostics._NOISE_CELLS // step_cells)
    pair = np.empty((runs, horizon + 1))
    cons_sq = np.empty((runs, horizon + 1))
    for n in range(horizon + 1):
        pos = ens.positions
        pair[:, n] = mean_pairwise_sq(pos)
        cons = consensus(ens, params.beta)
        dev = pos - cons[:, None, :]
        cons_sq[:, n] = (dev * dev).sum(axis=-1).mean(axis=-1)
        if n < horizon:
            if n % block_steps == 0:
                block = draw_step_noise(params, dim, rngs, steps=min(block_steps, horizon - n))
            ens = advance(ens, cons, params, projector, objective, block[:, n % block_steps])
    return np.add.accumulate(pair)[-1] / runs, np.add.accumulate(cons_sq)[-1] / runs


# ------------------------------------------------------------- the cases


def projector_for(kind: str, d: int):
    if kind == "simplex":
        return simplex(d)
    if kind == "box":
        return box(np.full(d, -0.3), np.full(d, 0.8))
    if kind == "unbounded":
        return box(np.full(d, -np.inf), np.full(d, np.inf))
    return ball(np.full(d, 0.2), 0.9)


def objective_for(kind: str, d: int):
    center = np.linspace(-0.4, 0.6, d)
    return rastrigin(center, 0.5) if kind == "ball" else sphere(center)


KINDS = ["simplex", "box", "unbounded", "ball"]
# (N, d, block cells): the default block, and blocks small enough to give
# many row blocks (threaded on more than one usable CPU) at small shapes.
SHAPES = [(2, 3, None), (8, 4, None), (8, 4, 12), (100, 20, None), (100, 20, 300)]


def params_for(n, mode, **kw):
    kw = {"seed": 11, "max_iters": 40, **kw}
    return CboParams(lam=1.0, sigma=0.7, beta=30.0, h=0.1, n_particles=n, noise_mode=mode, **kw)


def assert_same_run(got, want):
    ens, records, point, best_point, best_value = want
    assert_same_bits(got.ensemble.positions, ens.positions)
    assert_same_bits(got.ensemble.objective_values, ens.objective_values)
    assert got.ensemble.iteration == ens.iteration
    assert_same_bits(got.point, point)
    assert_same_bits(got.best_point, best_point)
    assert got.best_value == best_value or (math.isnan(got.best_value) and math.isnan(best_value))
    assert len(got.trace) == len(records)
    for rec, (it, cons, disp, res, best, com, a_n, b_n) in zip(got.trace, records):
        assert rec.iteration == it
        assert_same_bits(rec.consensus, cons)
        assert_same_bits([rec.dispersion, rec.residual, rec.best_value, rec.a_n, rec.b_n],
                         [disp, res, best, a_n, b_n])
        assert_same_bits(rec.center_of_mass, com)


@pytest.mark.parametrize("n, d, cells", SHAPES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", list(NoiseMode))
@pytest.mark.parametrize("thin", [1, 7])
def test_run_keeps_the_bits_of_the_old_loop(n, d, cells, kind, mode, thin):
    projector, objective = projector_for(kind, d), objective_for(kind, d)
    params = params_for(n, mode)
    with block_cells(cells):
        got = run(objective, projector, params, thin=thin)
        want = run_reference(objective, projector, params, thin=thin)
    assert_same_run(got, want)


@pytest.mark.parametrize("mode", list(NoiseMode))
def test_run_with_tol_zero_stops_at_the_cap_with_the_old_bits(mode):
    params = params_for(8, mode, residual_tol=0.0, max_iters=300)
    projector, objective = simplex(4), sphere(np.array([0.1, 0.2, 0.3, 0.4]))
    got = run(objective, projector, params, thin=7)
    assert got.ensemble.iteration == 300
    assert_same_run(got, run_reference(objective, projector, params, thin=7))


@pytest.mark.parametrize("kind", ["simplex", "unbounded", "ball"])
@pytest.mark.parametrize("mode", list(NoiseMode))
def test_run_on_a_multi_block_threaded_shape(kind, mode):
    # (100, 6000) is five default row blocks, shared by threads when more
    # than one CPU is usable.
    n, d = 100, 6000
    assert len(metaio._block_ranges((n, d))) > 1
    projector, objective = projector_for(kind, d), objective_for(kind, d)
    params = params_for(n, mode, max_iters=4)
    assert_same_run(run(objective, projector, params), run_reference(objective, projector, params))


@pytest.mark.parametrize("n, d, cells", SHAPES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", list(NoiseMode))
def test_cbo_step_keeps_the_bits_of_the_old_step(n, d, cells, kind, mode):
    projector, objective = projector_for(kind, d), objective_for(kind, d)
    params = params_for(n, mode)
    start = init_ensemble(d, params, None, 1.0, projector, objective)
    with block_cells(cells):
        ens = want_ens = start
        rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(5):
            ens, rec = cbo_step(ens, params, projector, objective, rng)
            want_ens, want_rec = cbo_step_reference(want_ens, params, projector, objective,
                                                    want_rng)
            assert_same_bits(ens.positions, want_ens.positions)
            assert_same_bits(ens.objective_values, want_ens.objective_values)
            assert ens.iteration == want_ens.iteration
            assert rec.iteration == want_rec[0]
            assert_same_bits(rec.consensus, want_rec[1])
            assert_same_bits([rec.dispersion, rec.residual, rec.best_value, rec.a_n, rec.b_n],
                             list(want_rec[2:5]) + list(want_rec[6:]))
            assert_same_bits(rec.center_of_mass, want_rec[5])
    assert_same_bits(start.positions, init_ensemble(d, params, None, 1.0, projector,
                                                    objective).positions)


DECAY_CASES = [(2, 3, 5, None), (8, 4, 200, None), (8, 4, 200, 40), (100, 20, 100, None)]


@pytest.mark.parametrize("n, d, runs, cells", DECAY_CASES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", list(NoiseMode))
def test_decay_experiment_keeps_the_bits_of_the_old_loop(n, d, runs, cells, kind, mode):
    projector, objective = projector_for(kind, d), objective_for(kind, d)
    params = params_for(n, mode)
    horizon = 12
    with block_cells(cells):
        report = decay_experiment(objective, projector, params, runs, horizon, seed=5)
        pair, cons_sq = decay_reference(objective, projector, params, runs, horizon, seed=5)
    assert_same_bits(report.mean_pairwise_sq, pair)
    assert_same_bits(report.mean_consensus_sq, cons_sq)


# ------------------------------------------------------------- the guards


class NanAfter:
    """A duck-typed simplex projector whose output turns NaN after ``calls`` calls."""

    def __init__(self, d, calls):
        self.inner, self.dim, self.calls = simplex(d), d, calls

    def project_rows(self, vs):
        self.calls -= 1
        out = self.inner.project_rows(vs)
        return out if self.calls >= 0 else np.full_like(out, np.nan)

    def project(self, v):
        return self.inner.project(v)


# Finite on any input, so only the scan of the projector's output can
# notice what the projector returned.
FLAT = Objective(lambda rows: np.zeros(len(rows)), "flat")


@contextlib.contextmanager
def no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def test_a_projector_returning_nan_stops_run():
    params = params_for(6, NoiseMode.COMMON)
    with no_warnings(), pytest.raises(NumericDomainError, match="positions must be finite"):
        run(FLAT, NanAfter(3, calls=4), params)


def test_a_projector_returning_nan_stops_cbo_step():
    params = params_for(6, NoiseMode.COMMON)
    ens = init_ensemble(3, params, None, 1.0, simplex(3), FLAT)
    with pytest.raises(NumericDomainError, match="positions must be finite"):
        cbo_step(ens, params, NanAfter(3, calls=0), FLAT, np.random.default_rng(0))


@pytest.mark.parametrize("mode", list(NoiseMode))
def test_a_projector_returning_nan_stops_decay_experiment(mode):
    params = params_for(6, mode)
    with no_warnings(), pytest.raises(NumericDomainError, match="positions must be finite"):
        decay_experiment(FLAT, NanAfter(3, calls=3), params, runs=4, horizon=10, seed=1)


@pytest.mark.parametrize("entry", ["run", "decay"])
def test_a_predictor_overflow_is_caught_by_the_projection_scan(entry):
    unbounded = box(np.full(3, -np.inf), np.full(3, np.inf))
    params = CboParams(lam=1.0, sigma=1e3, beta=1.0, h=0.1, n_particles=4, seed=2)
    mean = np.full(3, 1e307)
    with no_warnings():
        with pytest.raises(NumericDomainError, match="projection input contains non-finite"):
            if entry == "run":
                run(FLAT, unbounded, params, init_mean=mean, init_std=1e306)
            else:
                decay_experiment(FLAT, unbounded, params, runs=3, horizon=5, seed=2,
                                 init_mean=mean, init_std=1e306)


def flaky(after: int) -> Objective:
    state = {"calls": 0}

    def batch(rows):
        state["calls"] += 1
        return np.zeros(len(rows)) if state["calls"] <= after else np.full(len(rows), np.nan)

    return Objective(batch, "flaky")


def test_a_non_finite_objective_names_its_iteration():
    params = params_for(6, NoiseMode.COMMON)
    with no_warnings():
        # The start is one evaluation, and each step one more.
        with pytest.raises(NumericDomainError, match="at iteration 3$"):
            run(flaky(3), simplex(3), params)
        # decay_experiment evaluates each run's start on its own, then all
        # runs at once per step.
        with pytest.raises(NumericDomainError, match="at iteration 2$"):
            decay_experiment(flaky(4 + 1), simplex(3), params, runs=4, horizon=5, seed=1)
        with pytest.raises(NumericDomainError, match="at iteration 1$"):
            cbo_step(init_ensemble(3, params, None, 1.0, simplex(3), FLAT), params, simplex(3),
                     flaky(0), np.random.default_rng(0))


@pytest.fixture
def scans(monkeypatch):
    """The shapes of the arrays that ``core`` and the projectors scan for finiteness."""
    shapes = []

    def counting(arr):
        shapes.append(np.shape(arr))
        return metaio._all_finite(arr)

    for module in (core, projections):
        monkeypatch.setattr(module, "_all_finite", counting)
    return shapes


@pytest.mark.parametrize("mode", list(NoiseMode))
def test_a_step_scans_three_arrays(scans, mode):
    # The projector's input, then the new Ensemble's values and positions.
    params = params_for(6, mode, residual_tol=0.0)
    objective = sphere(np.zeros(3))
    ens = init_ensemble(3, params, None, 1.0, simplex(3), objective)
    scans.clear()
    cbo_step(ens, params, simplex(3), objective, np.random.default_rng(0))
    assert scans == [(6, 3), (6,), (6, 3)]
    counts = []
    for steps in (4, 9):
        scans.clear()
        run(objective, simplex(3), dataclasses.replace(params, max_iters=steps))
        counts.append(len(scans))
    assert counts[1] - counts[0] == 3 * (9 - 4)


@pytest.mark.parametrize("argv, message", [
    (["--objective", "sphere", "--dim", "2", "--init-std", "1e308", "--max-iters", "2"],
     "error: projection input contains non-finite entries"),
    (["--objective", "sphere", "--dim", "2", "--projector", "box:-inf -inf,inf inf",
      "--init-std", "1e300", "--sigma", "10", "--max-iters", "50"],
     "error: non-finite objective value at iteration 0"),
    (["--objective", "rastrigin", "--dim", "2", "--scale", "1e-320", "--max-iters", "3"],
     "error: non-finite objective value at iteration 0"),
])
def test_overflowing_solves_print_one_error_line(tmp_path, capsys, argv, message):
    with no_warnings():
        assert main(["solve", *argv, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
