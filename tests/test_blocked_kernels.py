"""Row-blocked kernels are bit-identical to the whole-array expressions.

The predictor, the ball projection, the sphere and Rastrigin batch
evaluators and ``run``'s per-iteration distance norms are evaluated in row
blocks of about ``metaio._BLOCK_CELLS`` cells.  Each test below keeps the
whole-array expression the kernel replaced, verbatim, as its reference, and
compares bits on shapes that straddle the block edges: no rows, one row,
rows-per-block - 1, rows-per-block, rows-per-block + 1, and rows wider than
a block.  Every input array must come back unchanged.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbopt import core, metaio
from cbopt.core import (
    CboParams,
    Ensemble,
    NoiseMode,
    predictor_step,
    run,
)
from cbopt.objectives import rastrigin, sphere
from cbopt.projections import ball, box, simplex


@contextlib.contextmanager
def block_cells(cells: int):
    saved = metaio._BLOCK_CELLS
    metaio._BLOCK_CELLS = cells
    try:
        yield
    finally:
        metaio._BLOCK_CELLS = saved


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(bits(got), bits(want))


def rows_around_a_block(cells: int, d: int) -> list[int]:
    per_block = max(1, cells // d)
    return sorted({0, 1, max(0, per_block - 1), per_block, per_block + 1, 3 * per_block + 1})


def values(seed, shape) -> np.ndarray:
    """Normal draws on mixed scales, with signed zeros and exact integers."""
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    flat = out.reshape(-1)
    flat[::7] = -0.0
    flat[3::11] = np.round(flat[3::11])
    return out


# ---------------------------------------------------- pre-change expressions


def predictor_reference(ensemble, consensus, params, eta):
    dev = ensemble.positions - consensus[..., None, :]
    eta = eta if params.noise_mode is NoiseMode.INDEPENDENT else eta[..., None, :]
    return (
        ensemble.positions
        - (params.lam * params.h) * dev
        + (params.sigma * math.sqrt(params.h)) * dev * eta
    )


def ball_reference(projector, vs):
    dev = vs - projector.center
    dist = np.sqrt((dev * dev).sum(axis=1))
    scale = np.ones_like(dist)
    np.divide(projector.radius, dist, out=scale, where=dist > projector.radius)
    return projector.center + dev * scale[:, None]


def sphere_reference(c, rows):
    dev = rows - c
    return (dev * dev).sum(axis=1)


def rastrigin_reference(s, scale, rows):
    z = (rows - s) / scale
    return (z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0).sum(axis=1)


def norms_reference(positions, cons, noise_values):
    """``run``'s residual/A_n distances and B_n noise-term norms."""
    dev = positions - cons
    dist = np.sqrt((dev * dev).sum(axis=1))
    term = dev * noise_values
    return dist, np.sqrt((term * term).sum(axis=1))


# ------------------------------------------------------------------- kernels

block_and_width = st.tuples(st.integers(1, 200), st.integers(1, 40))


@settings(max_examples=60, deadline=None)
@given(block_and_width, st.sampled_from(list(NoiseMode)), st.integers(0, 2**32 - 1),
       st.booleans())
def test_predictor_step_matches_the_whole_array_expression(cd, mode, seed, batched):
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
    with block_cells(cells):
        got = predictor_step(ens, cons, params, eta)
    assert_same_bits(got, predictor_reference(ens, cons, params, eta))
    for before, after in zip(copies, (ens.positions, cons, eta)):
        assert_same_bits(after, before)


@settings(max_examples=60, deadline=None)
@given(block_and_width, st.integers(0, 2**32 - 1), st.floats(0.01, 100.0))
def test_ball_projection_matches_the_whole_array_expression(cd, seed, radius):
    cells, d = cd
    for n in rows_around_a_block(cells, d):
        vs = values((seed, n, 0), (n, d))
        proj = ball(values((seed, n, 1), (d,)), radius)
        vs[::2] = proj.center  # rows at the center: distance 0, scale 1
        before = vs.copy()
        with block_cells(cells):
            got = proj.project_rows(vs)
        assert_same_bits(got, ball_reference(proj, vs))
        assert_same_bits(vs, before)


@settings(max_examples=60, deadline=None)
@given(block_and_width, st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
def test_sphere_and_rastrigin_batches_match_the_whole_array_expressions(cd, seed, scale):
    cells, d = cd
    for n in rows_around_a_block(cells, d):
        rows = values((seed, n, 0), (n, d))
        c = values((seed, n, 1), (d,))
        before = rows.copy()
        with block_cells(cells):
            got_sphere = sphere(c).eval_many(rows)
            got_rastrigin = rastrigin(c, scale).eval_many(rows)
        assert_same_bits(got_sphere, sphere_reference(c, rows))
        assert_same_bits(got_rastrigin, rastrigin_reference(c, scale, rows))
        assert_same_bits(rows, before)


@settings(max_examples=60, deadline=None)
@given(block_and_width, st.sampled_from(list(NoiseMode)), st.integers(0, 2**32 - 1))
def test_run_norms_match_the_whole_array_expressions(cd, mode, seed):
    cells, d = cd
    for n in rows_around_a_block(cells, d):
        pos = values((seed, n, 0), (n, d))
        cons = values((seed, n, 1), (d,))
        eta = values((seed, n, 2), (d,) if mode is NoiseMode.COMMON else (n, d))
        copies = [a.copy() for a in (pos, cons, eta)]
        with block_cells(cells):
            dist = np.sqrt(metaio._row_sq(pos, cons))
            term = np.sqrt(metaio._row_sq(pos, cons, eta))
        want_dist, want_term = norms_reference(pos, cons, eta)
        assert_same_bits(dist, want_dist)
        assert_same_bits(term, want_term)
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


@settings(max_examples=60, deadline=None)
@given(block_and_width, st.integers(1, 3))
def test_each_block_cuts_the_rows_at_the_block_edges(cd, buffers):
    """One range, the whole array, while it fits in a block; else ranges of
    ``cells // d`` rows (at least one) in order, the last one shorter, and
    scratch shaped like the first."""
    cells, d = cd
    for n in rows_around_a_block(cells, d):
        calls = []
        with block_cells(cells):
            metaio._each_block((n, d), lambda lo, hi, *scratch: calls.append(
                (lo, hi, [a.shape for a in scratch])), buffers)
        if n * d <= cells:
            want = [(0, n)]
        else:
            step = max(1, cells // d)
            want = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
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
                         predictor_reference(ens, cons, params, eta))
        want = norms_reference(pos, cons, eta)
        assert_same_bits(np.sqrt(metaio._row_sq(pos, cons)), want[0])
        assert_same_bits(np.sqrt(metaio._row_sq(pos, cons, eta)), want[1])
    proj = ball(cons, 0.5 * math.sqrt(d))
    assert_same_bits(proj.project_rows(pos), ball_reference(proj, pos))
    assert_same_bits(sphere(cons).eval_many(pos), sphere_reference(cons, pos))
    assert_same_bits(rastrigin(cons, 2.0).eval_many(pos), rastrigin_reference(cons, 2.0, pos))
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


@pytest.mark.parametrize("family", ["simplex", "box", "ball"])
@pytest.mark.parametrize("mode", list(NoiseMode))
def test_run_does_not_depend_on_the_block_size(family, mode):
    d, n = 9, 11
    projector = {
        "simplex": simplex(d),
        "box": box(np.full(d, -0.5), np.full(d, 2.0)),
        "ball": ball(np.full(d, 0.25), 0.8),
    }[family]
    objective = rastrigin(np.linspace(0.0, 0.3, d), 0.7) if family != "simplex" \
        else sphere(np.linspace(0.2, 0.0, d))
    params = CboParams(lam=1.0, sigma=0.8, beta=30.0, h=0.1, n_particles=n, noise_mode=mode,
                       seed=5, max_iters=25, residual_tol=0.0)
    want = run_fields(run(objective, projector, params, thin=3))
    for cells in (7, 64):
        with block_cells(cells):
            got = run_fields(run(objective, projector, params, thin=3))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_bits(g, w)
