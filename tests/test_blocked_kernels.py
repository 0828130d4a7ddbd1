"""Row-blocked kernels are bit-identical to the whole-array expressions, on
any block size and any number of threads.

The predictor, the ball projection, the sphere and Rastrigin batch
evaluators and ``run``'s per-iteration distance norms are evaluated in row
blocks of about ``metaio._BLOCK_CELLS`` cells, and ``metaio._each_block``
shares four blocks or more between up to one thread per usable CPU.  Each
kernel test takes the block size and the reported CPU count (1 or 3) as
inputs, and compares bits with the whole-array expression in ``oracles`` on
shapes that straddle the block edges: no rows, one row, rows-per-block - 1,
rows-per-block, rows-per-block + 1, and rows wider than a block.  Every
input array must come back unchanged.  At three CPUs a kernel of four
blocks or more must start a thread, a smaller one none, and no thread may
be left running.  A whole ``run`` must not depend on either input.
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from cbopt import core, metaio
from cbopt.core import (
    CboParams,
    Ensemble,
    NoiseMode,
    predictor_step,
)
from cbopt.objectives import rastrigin, sphere
from cbopt.projections import ball, box
from conftest import assert_same_bits, run_of, values

# Each example sets the block size and the CPU count it reports, so the
# function-scoped fixtures need no reset between examples.
FIXTURES_PER_TEST = [HealthCheck.function_scoped_fixture]


def rows_around_a_block(cells: int, d: int) -> list[int]:
    per_block = max(1, cells // d)
    return sorted({0, 1, max(0, per_block - 1), per_block, per_block + 1, 3 * per_block + 1})


def row_ranges(shape, cells: int) -> list[tuple[int, int]]:
    """The row ranges of an array of ``shape`` in blocks of ``cells`` cells:
    the whole array while it fits, else ``cells // row cells`` rows (at
    least one) at a time, the last range shorter."""
    rows, row_cells = shape[0], math.prod(shape[1:])
    if rows * row_cells <= cells:
        return [(0, rows)]
    step = max(1, cells // row_cells)
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def assert_threads(started, k, shape, cells):
    """A thread started iff k > 1 CPUs shared four blocks or more; none is left."""
    assert bool(started) == (k > 1 and len(row_ranges(shape, cells)) >= 4)
    assert threading.active_count() == 1


# ------------------------------------------------------------------- kernels

block_and_width = st.tuples(st.integers(1, 200), st.integers(1, 40))
reported = st.sampled_from([1, 3])


@settings(max_examples=60, deadline=None, suppress_health_check=FIXTURES_PER_TEST)
@given(block_and_width, st.sampled_from(list(NoiseMode)), st.integers(0, 2**32 - 1),
       st.booleans(), reported)
def test_predictor_step_matches_the_whole_array_expression(block_cells, cpus, cd, mode, seed,
                                                           batched, k):
    cells, d = cd
    rng = np.random.default_rng(seed)
    n = max(2, int(rng.choice(rows_around_a_block(cells, d))))
    lead = (int(rng.choice(rows_around_a_block(cells, n * d)[1:])),) if batched else ()
    params = CboParams(lam=float(rng.uniform(0.1, 3)), sigma=float(rng.uniform(0, 2)),
                       beta=1.0, h=float(rng.uniform(0.01, 0.5)), n_particles=n,
                       noise_mode=mode)
    pos = values((seed, 0), lead + (n, d))
    ens = Ensemble(pos, rng.standard_normal(lead + (n,)))
    cons = values((seed, 1), lead + (d,))
    eta = values((seed, 2), lead + ((d,) if mode is NoiseMode.COMMON else (n, d)))
    copies = [a.copy() for a in (ens.positions, cons, eta)]
    block_cells(cells)
    started = cpus(k)
    got = predictor_step(ens, cons, params, eta)
    assert_threads(started, k, pos.shape, cells)
    assert_same_bits(got, oracles.predictor(ens, cons, params, eta))
    for before, after in zip(copies, (ens.positions, cons, eta)):
        assert_same_bits(after, before)


@settings(max_examples=60, deadline=None, suppress_health_check=FIXTURES_PER_TEST)
@given(block_and_width, st.integers(0, 2**32 - 1), st.floats(0.01, 100.0), reported)
def test_ball_projection_matches_the_whole_array_expression(block_cells, cpus, cd, seed, radius,
                                                            k):
    cells, d = cd
    block_cells(cells)
    for n in rows_around_a_block(cells, d):
        vs = values((seed, n, 0), (n, d))
        proj = ball(values((seed, n, 1), (d,)), radius)
        vs[::2] = proj.center  # rows at the center: distance 0, scale 1
        before = vs.copy()
        started = cpus(k)
        got = proj.project_rows(vs)
        assert_threads(started, k, vs.shape, cells)
        assert_same_bits(got, oracles.ball(proj, vs))
        assert_same_bits(vs, before)


@settings(max_examples=60, deadline=None, suppress_health_check=FIXTURES_PER_TEST)
@given(block_and_width, st.integers(0, 2**32 - 1), st.floats(0.1, 10.0), reported)
def test_sphere_and_rastrigin_batches_match_the_whole_array_expressions(block_cells, cpus, cd,
                                                                        seed, scale, k):
    cells, d = cd
    block_cells(cells)
    for n in rows_around_a_block(cells, d):
        rows = values((seed, n, 0), (n, d))
        c = values((seed, n, 1), (d,))
        before = rows.copy()
        for objective, want in [(sphere(c), oracles.sphere(c, rows)),
                                (rastrigin(c, scale), oracles.rastrigin(c, scale, rows))]:
            started = cpus(k)
            got = objective.eval_many(rows)
            assert_threads(started, k, rows.shape, cells)
            assert_same_bits(got, want)
        assert_same_bits(rows, before)


@settings(max_examples=60, deadline=None, suppress_health_check=FIXTURES_PER_TEST)
@given(block_and_width, st.sampled_from(list(NoiseMode)), st.integers(0, 2**32 - 1), reported)
def test_run_norms_match_the_whole_array_expressions(block_cells, cpus, cd, mode, seed, k):
    cells, d = cd
    block_cells(cells)
    for n in rows_around_a_block(cells, d):
        pos = values((seed, n, 0), (n, d))
        cons = values((seed, n, 1), (d,))
        eta = values((seed, n, 2), (d,) if mode is NoiseMode.COMMON else (n, d))
        copies = [a.copy() for a in (pos, cons, eta)]
        for noise in (None, eta):
            started = cpus(k)
            got = metaio._row_sq(pos, cons, noise)
            assert_threads(started, k, pos.shape, cells)
            assert_same_bits(got, oracles.row_sq(pos, cons, noise))
        for before, after in zip(copies, (pos, cons, eta)):
            assert_same_bits(after, before)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 30), st.integers(1, 30), st.integers(0, 2**32 - 1),
       st.floats(0.01, 100.0))
def test_init_ensemble_matches_the_whole_array_expression(n, d, seed, init_std):
    params = CboParams(lam=1.0, sigma=0.5, beta=1.0, h=0.1, n_particles=n, seed=seed)
    mean = values((seed, 0), (d,))
    before = mean.copy()
    unbounded = box(np.full(d, -np.inf), np.full(d, np.inf))
    ens = core.init_ensemble(d, params, mean, init_std, unbounded, sphere(np.zeros(d)))
    rng = np.random.default_rng(seed)
    assert_same_bits(ens.positions, mean + init_std * rng.standard_normal((n, d)))
    assert_same_bits(mean, before)


@settings(max_examples=60, deadline=None, suppress_health_check=FIXTURES_PER_TEST)
@given(block_and_width, st.integers(1, 3))
def test_each_block_cuts_the_rows_at_the_block_edges(block_cells, cd, buffers):
    """One range, the whole array, while it fits in a block; else ranges of
    ``cells // d`` rows (at least one) in order, the last one shorter, and
    scratch shaped like the first."""
    cells, d = cd
    block_cells(cells)
    for n in rows_around_a_block(cells, d):
        calls = []
        metaio._each_block((n, d), lambda lo, hi, *scratch: calls.append(
            (lo, hi, [a.shape for a in scratch])), buffers)
        want = row_ranges((n, d), cells)
        assert [(lo, hi) for lo, hi, _ in calls] == want
        assert all(shapes == [(want[0][1], d)] * buffers for _, _, shapes in calls)


# Shapes around the default block: 7, 8 and 9 rows of 2**17 / 8 cells, and
# rows wider than a whole block.
DEFAULT_ROWS = metaio._BLOCK_CELLS // 8


@pytest.mark.parametrize(
    "n, d", [(7, DEFAULT_ROWS), (8, DEFAULT_ROWS), (9, DEFAULT_ROWS),
             (3, metaio._BLOCK_CELLS + 5)]
)
def test_default_block_size_edges(n, d):
    pos = values((n, d, 0), (n, d))
    cons = values((n, d, 1), (d,))
    before = pos.copy()
    for mode in NoiseMode:
        params = CboParams(lam=1.0, sigma=0.5, beta=1.0, h=0.1, n_particles=n, noise_mode=mode)
        eta = values((n, d, 2), (d,) if mode is NoiseMode.COMMON else (n, d))
        ens = Ensemble(pos, np.zeros(n))
        assert_same_bits(predictor_step(ens, cons, params, eta),
                         oracles.predictor(ens, cons, params, eta))
        assert_same_bits(metaio._row_sq(pos, cons), oracles.row_sq(pos, cons))
        assert_same_bits(metaio._row_sq(pos, cons, eta), oracles.row_sq(pos, cons, eta))
    proj = ball(cons, 0.5 * math.sqrt(d))
    assert_same_bits(proj.project_rows(pos), oracles.ball(proj, pos))
    assert_same_bits(sphere(cons).eval_many(pos), oracles.sphere(cons, pos))
    assert_same_bits(rastrigin(cons, 2.0).eval_many(pos), oracles.rastrigin(cons, 2.0, pos))
    assert_same_bits(pos, before)


# ----------------------------------------------------------------- whole run


def run_fields(result):
    """Every field of every trace record and of the result, as arrays."""
    out = []
    for r in result.trace:
        out += [r.iteration, r.consensus, r.dispersion, r.residual, r.best_value,
                r.center_of_mass, r.a_n, r.b_n, math.nan if r.err_ref is None else r.err_ref]
    ens = result.ensemble
    out += [ens.positions, ens.objective_values, ens.iteration, result.point,
            result.best_point, result.best_value, len(result.trace)]
    return out


@pytest.mark.parametrize("kind", ["simplex", "box", "ball"])
@pytest.mark.parametrize("mode", list(NoiseMode))
def test_run_does_not_depend_on_the_block_size_or_the_thread_count(block_cells, cpus, kind, mode):
    want = run_fields(run_of(kind, mode))
    # The (11, 9) arrays are 11 blocks of 7 cells, 6 of 20 and 2 of 64.
    for cells in (7, 20, 64):
        block_cells(cells)
        for k in (1, 3):
            started = cpus(k)
            got = run_fields(run_of(kind, mode))
            assert_threads(started, k, (11, 9), cells)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_same_bits(g, w)
