"""`cbo_step` and `run` build their trace rows the same way.

Rows are compared bitwise, field by field: the dispersion and the center of
mass are computed only for rows a trace keeps, and that must not change a
single bit of any row.
"""

import numpy as np
import pytest

from cbopt import (
    CboParams,
    NoiseMode,
    ball,
    box,
    cbo_step,
    init_ensemble,
    rastrigin,
    run,
    simplex,
    sphere,
)

FIELDS = ("consensus", "dispersion", "residual", "best_value", "center_of_mass", "a_n", "b_n")

PROBLEMS = {
    "simplex": lambda: (simplex(4), sphere(np.array([0.7, 0.1, 0.1, 0.1]))),
    "box": lambda: (box(np.full(3, -1.0), np.full(3, 2.0)), rastrigin(np.full(3, 0.3))),
    "ball": lambda: (ball(np.zeros(5), 1.5), sphere(np.full(5, 0.4))),
}


def params(mode, seed, max_iters=40):
    return CboParams(lam=1.0, sigma=0.7, beta=30.0, h=0.1, n_particles=9,
                     noise_mode=mode, seed=seed, max_iters=max_iters, residual_tol=1e-12)


def assert_same_row(got, want):
    assert got.iteration == want.iteration
    assert got.err_ref is None and want.err_ref is None
    for name in FIELDS:
        a = np.asarray(getattr(got, name), dtype=float)
        b = np.asarray(getattr(want, name), dtype=float)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("mode", list(NoiseMode))
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("seed", [0, 5])
def test_cbo_step_returns_the_rows_run_writes(mode, problem, seed):
    projector, objective = PROBLEMS[problem]()
    p = params(mode, seed)
    init_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    ens = init_ensemble(projector.dim, p, None, 1.0, projector, objective, seed=init_ss)
    rng = np.random.default_rng(noise_ss)
    advanced, record = cbo_step(ens, p, projector, objective, rng)

    trace = run(objective, projector, p).trace
    assert_same_row(record, trace.records[0])
    assert record.b_n == 0.0
    assert record.a_n > 0.0
    assert trace.records[1].iteration == advanced.iteration == 1
    assert advanced.positions.mean(axis=0).tobytes() == trace.records[1].center_of_mass.tobytes()

    # Stepping on draws the same noise as run, so every later row agrees
    # too once a_n is summed the way run sums it; b_n is set aside because
    # cbo_step's row precedes the step's noise.
    a_sum = record.a_n
    for want in trace.records[1:]:
        advanced, row = cbo_step(advanced, p, projector, objective, rng)
        a_sum += row.a_n
        row.a_n, row.b_n = a_sum, want.b_n
        assert_same_row(row, want)


@pytest.mark.parametrize("mode", list(NoiseMode))
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_thinned_rows_equal_the_full_trace_rows(mode, problem):
    projector, objective = PROBLEMS[problem]()
    p = params(mode, seed=3, max_iters=60)
    full = run(objective, projector, p, thin=1)
    thinned = run(objective, projector, p, thin=7)

    by_iter = {r.iteration: r for r in full.trace}
    kept = [r.iteration for r in thinned.trace]
    assert kept == sorted({*range(0, full.trace.records[-1].iteration + 1, 7),
                           full.trace.records[-1].iteration})
    for row in thinned.trace:
        assert_same_row(row, by_iter[row.iteration])
    assert thinned.point.tobytes() == full.point.tobytes()
    assert thinned.best_point.tobytes() == full.best_point.tobytes()
    assert thinned.best_value == full.best_value
