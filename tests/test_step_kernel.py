"""The one step kernel against the loops it replaced, and the guards it keeps.

``run``, ``cbo_step`` and ``decay_experiment`` share ``core._step`` (the
decay stack on ranges of its runs), whose new ``Ensemble`` checks each
step; each of a step's kernels computes the deviation ``w - c`` again in
each of its row blocks.  ``oracles.run``, ``oracles.cbo_step`` and
``oracles.decay`` are the loops before that change, frozen, with every
kernel written as its whole-array expression; every output must keep its
bits on every block size and reported CPU count.  The references depend
on neither, so each is built once, by the first case that needs it, and
shared by the cases that differ only in block size or CPU count.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

import oracles
from cbopt import (
    CboParams,
    MarketStats,
    NoiseMode,
    Objective,
    box,
    cbo_step,
    decay_experiment,
    init_ensemble,
    neg_sharpe,
    run,
    simplex,
    sphere,
)
from cbopt import core, market, metaio, projections
from cbopt.cli import main
from cbopt.errors import NumericDomainError
from conftest import (
    assert_same_bits, no_warnings, objective_for, params_for, projector_for,
)

KINDS = ["simplex", "box", "unbounded", "ball"]
# (N, d, block cells): the default block, and blocks small enough to give
# many row blocks (threaded on more than one usable CPU) at small shapes.
SHAPES = [(2, 3, None), (8, 4, None), (8, 4, 12), (100, 20, None), (100, 20, 300)]


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


@functools.cache
def run_reference(n, d, kind, mode, thin):
    return oracles.run(objective_for(kind, d), projector_for(kind, d), params_for(n, mode),
                       thin=thin)


@functools.cache
def cbo_step_reference(n, d, kind, mode):
    """The start and the five ``(ensemble, record)`` steps after it."""
    projector, objective = projector_for(kind, d), objective_for(kind, d)
    params = params_for(n, mode)
    start = init_ensemble(d, params, None, 1.0, projector, objective)
    ens, rng, steps = start, np.random.default_rng(3), []
    for _ in range(5):
        ens, rec = oracles.cbo_step(ens, params, projector, objective, rng)
        steps.append((ens, rec))
    return start, steps


@functools.cache
def decay_reference(n, d, runs, kind, mode):
    return oracles.decay(objective_for(kind, d), projector_for(kind, d), params_for(n, mode),
                         runs, 12, seed=5)


@functools.cache
def sharpe_reference(mode):
    objective = neg_sharpe(MarketStats(*market.demo_market(20)))
    return oracles.decay(objective, simplex(20), params_for(100, mode), 100, 12, seed=5)


@pytest.mark.parametrize("n, d, cells", SHAPES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", list(NoiseMode))
@pytest.mark.parametrize("thin", [1, 7])
def test_run_keeps_the_bits_of_the_old_loop(block_cells, n, d, cells, kind, mode, thin):
    want = run_reference(n, d, kind, mode, thin)
    block_cells(cells)
    got = run(objective_for(kind, d), projector_for(kind, d), params_for(n, mode), thin=thin)
    assert_same_run(got, want)


@pytest.mark.parametrize("mode", list(NoiseMode))
def test_run_with_tol_zero_stops_at_the_cap_with_the_old_bits(mode):
    params = params_for(8, mode, residual_tol=0.0, max_iters=300)
    projector, objective = simplex(4), sphere(np.array([0.1, 0.2, 0.3, 0.4]))
    got = run(objective, projector, params, thin=7)
    assert got.ensemble.iteration == 300
    assert_same_run(got, oracles.run(objective, projector, params, thin=7))


@pytest.mark.parametrize("kind", ["simplex", "unbounded", "ball"])
@pytest.mark.parametrize("mode", list(NoiseMode))
def test_run_on_a_multi_block_threaded_shape(cpus, kind, mode):
    # (100, 6000) is five default row blocks, shared by threads when more
    # than one CPU is usable.
    n, d = 100, 6000
    blocks = []
    metaio._each_block((n, d), lambda lo, hi, scratch: blocks.append(lo))
    assert len(blocks) > 1
    projector, objective = projector_for(kind, d), objective_for(kind, d)
    params = params_for(n, mode, max_iters=4)
    started = cpus(3)
    assert_same_run(run(objective, projector, params), oracles.run(objective, projector, params))
    assert started


@pytest.mark.parametrize("n, d, cells", SHAPES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", list(NoiseMode))
def test_cbo_step_keeps_the_bits_of_the_old_step(block_cells, n, d, cells, kind, mode):
    projector, objective = projector_for(kind, d), objective_for(kind, d)
    params = params_for(n, mode)
    start, want = cbo_step_reference(n, d, kind, mode)
    block_cells(cells)
    ens, rng = start, np.random.default_rng(3)
    for want_ens, want_rec in want:
        ens, rec = cbo_step(ens, params, projector, objective, rng)
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


# (N, d, runs, block cells, ranged) of decay stacks.  A ranged stack is cut
# into two ranges of runs per usable CPU, so more than one CPU steps it on
# threads: in (2, 3, 16, 4) each run is more than a whole block, the
# (100, 20, 100) stack is the portfolio benchmark's shape, whose ranges hold
# at least 16 runs (a quarter block), and in (8, 4, 31, 500) at least 3, so
# 7 CPUs take ten ranges of 3 runs and one of 1.  The others run inline.
DECAY_CASES = [(2, 3, 5, None, False), (8, 4, 200, None, False), (8, 4, 200, 40, True),
               (2, 3, 16, 4, True), (100, 20, 100, None, True), (8, 4, 31, 500, True)]


@pytest.mark.parametrize("k", [1, 2, 4, 7])
@pytest.mark.parametrize("n, d, runs, cells, ranged", DECAY_CASES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", list(NoiseMode))
def test_decay_experiment_keeps_the_bits_of_the_old_loop_on_any_cpu_count(
        block_cells, cpus, k, n, d, runs, cells, ranged, kind, mode):
    pair, cons_sq, var0 = decay_reference(n, d, runs, kind, mode)
    block_cells(cells)
    started = cpus(k)
    report = decay_experiment(objective_for(kind, d), projector_for(kind, d),
                              params_for(n, mode), runs, 12, seed=5)
    assert bool(started) == (ranged and k > 1)
    assert_same_bits(report.mean_pairwise_sq, pair)
    assert_same_bits(report.mean_consensus_sq, cons_sq)
    assert report.initial_variance == var0


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("mode", list(NoiseMode))
def test_a_sharpe_stack_is_evaluated_whole(cpus, k, mode):
    # BLAS may round a Sharpe row in a smaller block differently, so the
    # run ranges of this stack must not be evaluated one by one.
    pair, cons_sq, _ = sharpe_reference(mode)
    cpus(k)
    objective = neg_sharpe(MarketStats(*market.demo_market(20)))
    report = decay_experiment(objective, simplex(20), params_for(100, mode), 100, 12, seed=5)
    assert_same_bits(report.mean_pairwise_sq, pair)
    assert_same_bits(report.mean_consensus_sq, cons_sq)


def test_the_portfolio_decay_stack_writes_the_same_bytes_on_one_worker(tmp_path, cpus):
    # 100 runs of (100, 20): seven run ranges of 16 runs on four reported CPUs.
    assert main(["synth", "--assets", "20", "--rows", "400", "--seed", "7",
                 "--out", str(tmp_path)]) == 0
    assert main(["ingest", str(tmp_path / "prices.csv"), "--out", str(tmp_path)]) == 0
    started = cpus(4)
    trees = {}
    for name, extra in (("all", []), ("one", ["--workers", "1"])):
        started.clear()
        out = tmp_path / name
        assert main(["diagnose", "--stats", str(tmp_path / "stats.txt"), "--runs", "100",
                     "--horizon", "5", "--seed", "7", "--out", str(out), *extra]) == 0
        trees[name] = ((out / "decay.csv").read_bytes(), list(started))
    assert trees["all"][1] and not trees["one"][1]
    assert trees["one"][0] == trees["all"][0]


# ------------------------------------------------------------- the guards


class NanAfter:
    """A duck-typed simplex projector whose output turns NaN after ``calls`` calls."""

    def __init__(self, d, calls):
        self.inner, self.dim, self.calls = simplex(d), d, calls

    def project_rows(self, vs, out=None):
        self.calls -= 1
        out = self.inner.project_rows(vs, out=out)
        return out if self.calls >= 0 else np.full_like(out, np.nan)

    def project(self, v):
        return self.inner.project(v)


class IgnoresOut:
    """A duck-typed simplex projector that returns a new array, and keeps
    each array it returned with a copy in ``returned``."""

    def __init__(self, d):
        self.inner, self.dim, self.returned = simplex(d), d, []

    def project_rows(self, vs, out=None):
        got = self.inner.project_rows(vs)
        self.returned.append((got, got.copy()))
        return got

    def project(self, v):
        return self.inner.project(v)


@pytest.mark.parametrize("k", [1, 2])
def test_a_projector_that_ignores_out_gives_a_run_range_stack_its_rows(block_cells, cpus, k):
    params = params_for(8, NoiseMode.INDEPENDENT)
    objective = objective_for("simplex", 4)
    cpus(k)
    block_cells(40)  # two ranges of runs per reported CPU
    want = decay_experiment(objective, simplex(4), params, 50, 6, seed=3)
    got = decay_experiment(objective, IgnoresOut(4), params, 50, 6, seed=3)
    assert_same_bits(got.mean_pairwise_sq, want.mean_pairwise_sq)
    assert_same_bits(got.mean_consensus_sq, want.mean_consensus_sq)


@pytest.mark.parametrize("mode", list(NoiseMode))
def test_the_decay_stack_overwrites_no_array_a_projector_returned(mode):
    # The stack swaps two position arrays; the starts' draw is one of them,
    # so the starts copy the projector's rows into it.
    params = params_for(8, mode)
    objective = objective_for("simplex", 4)
    projector = IgnoresOut(4)
    report = decay_experiment(objective, projector, params, 30, 6, seed=3)
    pair, cons_sq, _ = oracles.decay(objective, simplex(4), params, 30, 6, seed=3)
    assert_same_bits(report.mean_pairwise_sq, pair)
    assert_same_bits(report.mean_consensus_sq, cons_sq)
    assert len(projector.returned) == 1 + 6  # the starts, then one call per step
    for got, kept in projector.returned:
        assert_same_bits(got, kept)


# Finite on any input, so only the scan of the projector's output can
# notice what the projector returned.
FLAT = Objective(lambda rows: np.zeros(len(rows)), "flat")


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
