"""Projection in place: ``project_rows(vs, out=vs)``.

``core._step`` projects the predictor's proposal into its own buffer, and
``core._starts`` its Gaussian draw, so each family must give the bits of a
fresh output when ``out`` is the input: the simplex takes the rows it
redoes before it writes ``out`` (row and column path), the box clips into
``out`` and the ball's row blocks, threaded or not, read and write the same
rows.  Also here: the checks on ``out``, the ball's rows whose sum of squares
overflows or underflows, and the memory a step and a start allocate.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cbopt import CboParams, Objective, ball, box, core, init_ensemble, metaio, rastrigin, run
from cbopt import simplex, sphere
from cbopt.errors import ConfigurationError
from conftest import assert_same_bits, no_warnings

EPS = np.finfo(float).eps


def values(seed, shape) -> np.ndarray:
    """Normal draws on scales from 1e-3 to 1e7 (the larger ones are rows the
    simplex redoes), with signed zeros and exact ties."""
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 8, size=(shape[0], 1))
    flat = out.reshape(-1)
    flat[::7] = -0.0
    flat[3::11] = 0.0
    if shape[1] > 1:
        out[::3, -1] = out[::3, 0]
    return out


def assert_in_place(projector, vs):
    """``project_rows(v, out=v)`` returns ``v`` holding the bits of ``project_rows(v)``."""
    want = projector.project_rows(vs)
    v = vs.copy()
    got = projector.project_rows(v, out=v)
    assert got is v
    assert_same_bits(got, want)


# ------------------------------------------------------ bits, family by family

seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.integers(1, 200), seeds)
def test_the_simplex_row_path_projects_in_place(d, m, seed):
    vs = values(seed, (m, d))
    if d < metaio._SHORT_ROW:
        vs = vs[: 16 * d * d - 1]  # below the column path's row count
    assert_in_place(simplex(d), vs)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, metaio._SHORT_ROW - 1), st.integers(0, 300), seeds)
def test_the_simplex_column_path_projects_in_place(d, extra, seed):
    assert_in_place(simplex(d), values(seed, (16 * d * d + extra, d)))


# Rows the threshold rule redoes: near ties far above the projector's bound
# (938 at k = 20), a largest entry of 2**53 or more, partial sums that overflow.
REDO = [[1e5, 1e5, 1e5 - 1e-11], [-2e4, -2e4 + 1e-12, -2e4], [1e16, 0.0, 0.0],
        [2.0**53 + 2, 0.0, -0.0], [-1e308, -1e308, 5.0]]


@pytest.mark.parametrize("d, m", [(3, 40), (7, 40), (20, 40), (3, 144), (5, 400), (7, 784)],
                         ids=["row-3", "row-7", "row-20", "column-3", "column-5", "column-7"])
def test_redone_simplex_rows_are_taken_before_out_is_written(d, m, monkeypatch):
    vs = values(d, (m, d))
    vs[: len(REDO)] = [(r + r[-1:] * d)[:d] for r in REDO]
    proj = simplex(d)
    redone = []
    take = proj._redo_rows
    monkeypatch.setattr(proj, "_redo_rows", lambda *args: redone.append(take(*args)) or redone[-1])
    assert_in_place(proj, vs)
    assert len(redone[-1][0]) >= len(REDO)
    # Projected in place, a redone row lands on the simplex, not on its own output.
    v = vs.copy()
    got = proj.project_rows(v, out=v)
    assert np.all(got >= 0) and np.all(np.abs(got.sum(axis=1) - 1) <= 1e-10)


# Each example sets the block size and the CPU count it reports itself.
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 12), st.integers(1, 60), seeds, st.sampled_from([7, 30, 50]))
def test_the_threaded_ball_projects_in_place(block_cells, cpus, d, m, seed, cells):
    rng = np.random.default_rng(seed)
    proj = ball(rng.standard_normal(d), float(rng.uniform(0.1, 10.0)))
    vs = values(seed, (4 * max(1, cells // d) + m, d))  # four row blocks or more
    block_cells(cells)
    cpus(3)
    assert_in_place(proj, vs)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(1, 60), seeds, st.booleans())
def test_boxes_project_in_place(d, m, seed, bounded):
    rng = np.random.default_rng(seed)
    if bounded:
        lo = rng.standard_normal(d) * 10.0
        hi = lo + rng.uniform(0.0, 20.0, d)
        lo[rng.random(d) < 0.2] = -np.inf
        hi[rng.random(d) < 0.2] = np.inf
    else:
        lo, hi = np.full(d, -np.inf), np.full(d, np.inf)
    assert_in_place(box(lo, hi), values(seed, (m, d)))


# ------------------------------------------------------------ the out checks

FAMILIES = [simplex(3), box(np.zeros(3), np.ones(3)), box(np.full(3, -np.inf), np.full(3, np.inf)),
            ball(np.zeros(3), 1.0)]


@pytest.mark.parametrize("proj", FAMILIES, ids=lambda p: p.describe())
@pytest.mark.parametrize("bad", ["shape", "dtype", "order", "readonly", "overlap", "list"])
def test_a_bad_out_is_a_configuration_error(proj, bad):
    buf = values(0, (9, 3))
    vs, out = buf[:8], np.empty((8, 3))
    if bad == "shape":
        out = np.empty((7, 3))
    elif bad == "dtype":
        out = np.empty((8, 3), dtype=np.float32)
    elif bad == "order":
        out = np.empty((3, 8)).T
    elif bad == "readonly":
        out.flags.writeable = False
    elif bad == "overlap":
        out = buf[1:]  # C-contiguous, but one row off
    else:
        out = out.tolist()
    before = buf.copy()
    with pytest.raises(ConfigurationError, match="out"):
        proj.project_rows(vs, out=out)
    assert_same_bits(buf, before)


@pytest.mark.parametrize("proj", FAMILIES, ids=lambda p: p.describe())
def test_out_may_be_another_view_of_the_input_or_a_separate_array(proj):
    vs = values(1, (8, 3))
    want = proj.project_rows(vs)
    v = vs.copy()
    view = v[:]
    assert proj.project_rows(v, out=view) is view
    assert_same_bits(v, want)
    out = np.empty((8, 3))
    assert proj.project_rows(vs.tolist(), out=out) is out
    assert_same_bits(out, want)


# ------------------------------------------------- the ball at extreme scales


def test_a_row_whose_squares_overflow_lands_on_the_sphere():
    with no_warnings():
        got = ball([0.0, 0.0], 1.0).project([1e200, 1e200])
    assert np.allclose(got, [math.sqrt(0.5)] * 2, rtol=4 * EPS, atol=0)


def test_a_row_whose_squares_underflow_is_projected():
    with no_warnings():
        got = ball([0.0, 0.0], 1e-300).project([1e-170, 0.0])
    assert got.tolist() == [1e-300, 0.0]


def test_a_row_at_the_center_stays():
    assert_same_bits(ball([0.0, 0.0], 1e-300).project([0.0, -0.0]), [0.0, 0.0])


@pytest.mark.parametrize("v", [[1e308, 0.0], [1e308, 1e308]])
@pytest.mark.parametrize("in_place", [False, True])
def test_a_row_whose_deviation_overflows_is_moved_along_its_halves(v, in_place):
    # v - c overflows; with out=vs the row must be halved before it is overwritten
    c = np.array([-1e308, 0.0])
    vs = np.array([v])
    d = vs[0] / 2 - c / 2
    want = c + d / math.hypot(*d)
    with no_warnings():
        got = ball(c, 1.0).project_rows(vs, out=vs if in_place else None)
    assert (got is vs) == in_place
    assert np.allclose(got[0], want, rtol=EPS, atol=0)


def test_rows_that_do_not_overflow_keep_their_bits_beside_rows_that_do(block_cells, cpus):
    c = np.array([-1e308, 0.0, 1.0])
    rng = np.random.default_rng(3)
    vs = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-3, 308, size=(40, 1))
    vs[::5] = [1e308, 1e308, 0.0]
    plain = np.ones(40, bool)
    plain[::5] = False
    want = ball(c, 2.0).project_rows(vs[plain])
    block_cells(6)  # rows of both kinds in most of the threads' blocks
    cpus(3)
    with no_warnings():
        got = ball(c, 2.0).project_rows(vs, out=vs)
    assert_same_bits(got[plain], want)
    assert np.all(np.isfinite(got))
    d = np.array([1e308, 1e308, 0.0]) / 2 - c / 2
    assert np.allclose(got[~plain], c + d / math.hypot(*d) * 2, rtol=EPS, atol=0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6).filter(
           lambda v: max(map(abs, v)) >= 0.1),
       st.integers(-300, 300), st.integers(-300, 300))
def test_the_ball_projects_rows_at_every_magnitude_onto_their_ray(direction, e, f):
    v = np.array(direction) * 10.0**e
    r = 10.0**f
    with no_warnings():
        got = ball(np.zeros(len(v)), r).project(v)
    length = math.hypot(*v)
    assert math.hypot(*got) <= r * (1 + 4 * EPS)
    if length <= r * (1 - 4 * EPS):
        assert np.array_equal(got, v)
        return
    assert math.hypot(*got) >= r * (1 - 4 * EPS)
    # On the ray from the center through v: the same direction, entry by entry.
    assert np.all(np.sign(got) * np.sign(v) >= 0)
    unit_v = v / np.abs(v).max()
    unit_got = got / np.abs(got).max()
    assert np.allclose(unit_got, unit_v, rtol=0, atol=16 * EPS)


def test_an_extreme_start_on_a_ball_does_not_collapse_onto_the_center():
    params = CboParams(lam=1.0, sigma=0.5, beta=10.0, h=0.05, n_particles=20, seed=1,
                       max_iters=50)
    with no_warnings():
        ens = init_ensemble(2, params, [5.0, 5.0], 1e200, ball([5.0, 5.0], 1.0),
                            sphere(np.zeros(2)))
    dist = np.hypot(*(ens.positions - 5.0).T)
    assert np.allclose(dist, 1.0, rtol=0, atol=1e-14)


# --------------------------------------------------------- the solver's calls


class Recording:
    """A duck-typed simplex projector that records whether ``out`` was its
    input and, with ``ignore_out``, returns a new array instead."""

    def __init__(self, d, ignore_out=False):
        self.inner, self.dim, self.ignore_out, self.in_place = simplex(d), d, ignore_out, []

    def project_rows(self, vs, out=None):
        self.in_place.append(out is vs)
        return self.inner.project_rows(vs, out=None if self.ignore_out else out)

    def project(self, v):
        return self.inner.project(v)


def test_the_solver_projects_in_place_and_uses_what_is_returned():
    params = CboParams(lam=1.0, sigma=0.5, beta=10.0, h=0.05, n_particles=8, seed=4,
                       max_iters=20, residual_tol=0.0)
    objective = Objective(lambda rows: (rows * rows).sum(axis=1), "sq")
    want = run(objective, simplex(3), params)
    for ignore_out in (False, True):
        proj = Recording(3, ignore_out)
        got = run(objective, proj, params)
        assert proj.in_place == [True] * 21  # the start and 20 steps
        assert_same_bits(got.ensemble.positions, want.ensemble.positions)
        assert_same_bits(got.point, want.point)


# ------------------------------------------------------------------- memory

N, D = 100, 10**4  # the highdim workload's shape: 8 MB per (N, d) array


def peak_above(call):
    """``call()``'s traced allocation peak above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture
def highdim(cpus):
    # One thread: each kernel's scratch is then one row block per buffer,
    # about 1 MB, whatever the host's CPU count.
    cpus(1)
    params = CboParams(lam=1.0, sigma=0.5, beta=10.0, h=0.05, n_particles=N, seed=3)
    return params, ball(np.zeros(D), 1.0), rastrigin(np.zeros(D))


def test_a_step_allocates_one_positions_array(highdim):
    params, proj, obj = highdim
    ens = init_ensemble(D, params, None, 1.0, proj, obj)
    cons = core.consensus_point(ens, params.beta)
    eta = core.draw_step_noise(params, D, np.random.default_rng(0))
    peak = peak_above(lambda: core._step(ens, cons, eta, params, proj, obj))
    assert peak <= N * D * 8 + 4 * 2**20


def test_a_start_allocates_one_positions_array(highdim):
    params, proj, obj = highdim
    peak = peak_above(lambda: init_ensemble(D, params, None, 1.0, proj, obj))
    assert peak <= N * D * 8 + 4 * 2**20
