import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbopt import (
    CboParams,
    Ensemble,
    Objective,
    box,
    cbo_step,
    consensus_point,
    init_ensemble,
    mean_pairwise_sq,
    run,
    simplex,
    sphere,
)
from cbopt.core import (
    NoiseMode,
    RunTrace,
    draw_step_noise,
    predictor_step,
    trace_csv_header,
    write_trace_csv,
)
from cbopt.errors import ConfigurationError, NumericDomainError


def params(**kw):
    base = dict(lam=1.0, sigma=0.5, beta=100.0, h=0.1, n_particles=8)
    base.update(kw)
    return CboParams(**base)


# ---------------------------------------------------------------- parameters


@pytest.mark.parametrize(
    "kw",
    [
        dict(lam=0.0),
        dict(lam=-1.0),
        dict(lam=math.inf),
        dict(sigma=-0.1),
        dict(sigma=math.nan),
        dict(beta=0.0),
        dict(h=0.0),
        dict(h=math.nan),
        dict(n_particles=1),
        dict(seed=-1),
        dict(max_iters=-1),
        dict(residual_tol=-1e-9),
        dict(residual_tol=math.nan),
        dict(noise_mode="common"),
    ],
)
def test_params_rejects_bad_values(kw):
    with pytest.raises(ConfigurationError):
        params(**kw)


def test_params_edge_values_allowed():
    params(sigma=0.0, max_iters=0, residual_tol=0.0)
    params(residual_tol=math.inf)


def test_ensemble_validation():
    with pytest.raises(ConfigurationError):
        Ensemble(np.zeros(3), np.zeros(3))  # not (N, d)
    with pytest.raises(ConfigurationError):
        Ensemble(np.zeros((1, 3)), np.zeros(1))  # lone particle
    with pytest.raises(ConfigurationError):
        Ensemble(np.zeros((2, 3)), np.zeros(3))  # value count mismatch
    with pytest.raises(NumericDomainError):
        Ensemble(np.array([[0.0, np.inf], [0.0, 0.0]]), np.zeros(2))


@pytest.mark.parametrize("iteration", [0, 7])
def test_ensemble_rejects_non_finite_values_naming_the_iteration(iteration):
    message = f"^non-finite objective value at iteration {iteration}$"
    with pytest.raises(NumericDomainError, match=message):
        Ensemble(np.zeros((2, 1)), np.array([0.0, np.nan]), iteration)
    # The values are checked before the positions.
    with pytest.raises(NumericDomainError, match="objective value"):
        Ensemble(np.full((2, 1), np.nan), np.array([np.inf, 0.0]), iteration=iteration)


@pytest.mark.parametrize("name", ["positions", "objective_values", "iteration"])
def test_ensemble_fields_cannot_be_reassigned(name):
    ens = Ensemble(np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(ens, name, getattr(ens, name))


# ------------------------------------------------------------ initialization


def test_init_is_deterministic_and_feasible():
    proj = simplex(4)
    obj = sphere(np.zeros(4))
    p = params(n_particles=32, seed=5)
    a = init_ensemble(4, p, None, 1.0, proj, obj)
    b = init_ensemble(4, p, None, 1.0, proj, obj)
    assert np.array_equal(a.positions, b.positions)
    assert proj.contains_rows(a.positions, 1e-10).all()
    c = init_ensemble(4, p, None, 1.0, proj, obj, seed=6)
    assert not np.array_equal(a.positions, c.positions)


def test_init_value_cache_matches_objective():
    proj = simplex(3)
    obj = sphere(np.array([0.1, 0.2, 0.7]))
    ens = init_ensemble(3, params(), None, 0.5, proj, obj)
    np.testing.assert_array_equal(ens.objective_values, obj.eval_many(ens.positions))
    assert ens.iteration == 0


def test_init_with_tiny_spread_collapses_to_the_mean():
    proj = simplex(3)
    ens = init_ensemble(3, params(), None, 1e-15, proj, sphere(np.zeros(3)))
    np.testing.assert_allclose(ens.positions, np.full((8, 3), 1 / 3), atol=1e-12)
    assert mean_pairwise_sq(ens.positions) < 1e-28


def test_init_rejects_bad_config():
    proj = simplex(2)
    obj = sphere(np.zeros(2))
    with pytest.raises(ConfigurationError):
        init_ensemble(2, params(), None, 1.0, None, obj)
    with pytest.raises(ConfigurationError):
        init_ensemble(3, params(), None, 1.0, proj, obj)  # dim mismatch
    with pytest.raises(ConfigurationError):
        init_ensemble(2, params(), None, 0.0, proj, obj)
    with pytest.raises(ConfigurationError):
        init_ensemble(2, params(), np.zeros(3), 1.0, proj, obj)


# ---------------------------------------------------------------- consensus


def test_consensus_weight_ratio_two_particles():
    # values 0 and 1 with beta = ln 3 give weights 1 and 1/3
    ens = Ensemble(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    got = consensus_point(ens, math.log(3.0))
    assert got[0] == pytest.approx(0.25, abs=1e-15)


def test_consensus_beta_zero_is_the_plain_mean():
    rng = np.random.default_rng(1)
    pos = rng.normal(size=(7, 3))
    ens = Ensemble(pos, rng.normal(size=7))
    np.testing.assert_allclose(consensus_point(ens, 0.0), pos.mean(axis=0), atol=1e-15)


def test_consensus_large_beta_picks_the_best_particle():
    ens = Ensemble(np.array([[0.0], [1.0], [2.0]]), np.array([5.0, -1.0, 4.0]))
    np.testing.assert_array_equal(consensus_point(ens, 1e6), np.array([1.0]))


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1e4))
def test_consensus_stays_in_the_particle_hull(seed, beta):
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(5, 3)) * 10
    ens = Ensemble(pos, rng.normal(size=5))
    cons = consensus_point(ens, beta)
    assert np.all(cons >= pos.min(axis=0) - 1e-12)
    assert np.all(cons <= pos.max(axis=0) + 1e-12)


def test_consensus_input_validation():
    ens = Ensemble(np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(ConfigurationError):
        consensus_point(ens, -1.0)
    with pytest.raises(ConfigurationError):
        consensus_point(ens, math.inf)
    with pytest.raises(NumericDomainError):
        bad = Ensemble(np.zeros((2, 1)), np.array([0.0, np.nan]))
        consensus_point(bad, 1.0)


# ---------------------------------------------------------- predictor update


def test_predictor_known_value():
    # w = 0.5, consensus = 0, lam*h = 0.002, no noise: 0.5 * (1 - 0.002)
    p = params(lam=0.2, h=0.01, sigma=0.0, n_particles=2)
    ens = Ensemble(np.array([[0.5], [-0.5]]), np.zeros(2))
    raw = predictor_step(ens, np.zeros(1), p, np.ones(1))
    assert raw[0, 0] == pytest.approx(0.499, abs=1e-15)
    assert raw[1, 0] == pytest.approx(-0.499, abs=1e-15)


def test_predictor_does_not_mutate_the_ensemble():
    p = params(n_particles=3)
    pos = np.arange(6.0).reshape(3, 2)
    ens = Ensemble(pos.copy(), np.zeros(3))
    predictor_step(ens, np.zeros(2), p, np.array([0.3, -0.8]))
    np.testing.assert_array_equal(ens.positions, pos)


def test_predictor_pairwise_difference_identity_under_common_noise():
    # with shared noise every pairwise difference scales by the same
    # coordinatewise factor 1 - lam*h + sigma*sqrt(h)*eta
    p = params(lam=0.7, sigma=0.9, h=0.05, n_particles=6)
    rng = np.random.default_rng(8)
    pos = rng.normal(size=(6, 4))
    ens = Ensemble(pos, rng.normal(size=6))
    eta = rng.standard_normal(4)
    raw = predictor_step(ens, consensus_point(ens, 10.0), p, eta)
    factor = 1.0 - p.lam * p.h + p.sigma * math.sqrt(p.h) * eta
    for i in range(6):
        for j in range(i):
            np.testing.assert_allclose(
                raw[i] - raw[j], factor * (pos[i] - pos[j]), atol=1e-12
            )


def test_predictor_rejects_mismatched_noise():
    p = params(n_particles=3)
    ens = Ensemble(np.zeros((3, 2)), np.zeros(3))
    # Noise of the other mode has the other mode's shape.
    with pytest.raises(ConfigurationError, match="common noise"):
        predictor_step(ens, np.zeros(2), p, np.zeros((3, 2)))
    independent = params(n_particles=3, noise_mode=NoiseMode.INDEPENDENT)
    with pytest.raises(ConfigurationError, match="independent noise"):
        predictor_step(ens, np.zeros(2), independent, np.zeros(2))
    with pytest.raises(ConfigurationError):
        predictor_step(ens, np.zeros(2), p, np.zeros(3))
    with pytest.raises(ConfigurationError):
        predictor_step(ens, np.zeros(3), p, np.zeros(2))


def test_noise_draw_statistics():
    rng = np.random.default_rng(0)
    p = params(n_particles=100, noise_mode=NoiseMode.INDEPENDENT)
    vals = draw_step_noise(p, 100, rng)
    assert vals.shape == (100, 100)
    assert abs(vals.mean()) < 4 / math.sqrt(vals.size)
    assert abs(vals.std() - 1.0) < 0.05
    common = np.concatenate(
        [draw_step_noise(params(), 5, rng) for _ in range(2000)]
    )
    assert abs(common.mean()) < 4 / math.sqrt(common.size)


# ----------------------------------------------------------------- one step


def test_step_records_the_input_state_and_advances():
    proj = simplex(3)
    obj = sphere(np.zeros(3))
    ens = init_ensemble(3, params(), None, 1.0, proj, obj)
    rng = np.random.default_rng(0)
    advanced, record = cbo_step(ens, params(), proj, obj, rng)
    assert record.iteration == 0
    assert advanced.iteration == 1
    np.testing.assert_array_equal(record.consensus, consensus_point(ens, 100.0))
    assert proj.contains_rows(advanced.positions, 1e-10).all()


def test_step_with_full_drift_and_no_noise_collapses_to_consensus():
    # lam*h = 1 and sigma = 0 map every particle onto the consensus point
    p = params(lam=1.0, h=1.0, sigma=0.0, n_particles=5, beta=3.0)
    proj = box(np.full(2, -10.0), np.full(2, 10.0))
    obj = sphere(np.zeros(2))
    rng = np.random.default_rng(2)
    pos = rng.normal(size=(5, 2))
    ens = Ensemble(pos, obj.eval_many(pos))
    advanced, record = cbo_step(ens, p, proj, obj, rng)
    np.testing.assert_allclose(advanced.positions, np.tile(record.consensus, (5, 1)), atol=1e-14)
    assert np.ptp(advanced.positions, axis=0).max() < 1e-15


def test_step_keeps_a_fully_collapsed_ensemble_fixed():
    # zero deviation kills both drift and noise, so a vertex is a fixed point
    vertex = np.array([1.0, 0.0, 0.0])
    pos = np.tile(vertex, (4, 1))
    obj = sphere(np.zeros(3))
    ens = Ensemble(pos, obj.eval_many(pos))
    advanced, _ = cbo_step(ens, params(n_particles=4), simplex(3), obj, np.random.default_rng(3))
    np.testing.assert_array_equal(advanced.positions, pos)


# -------------------------------------------------------------------- runs


def test_run_finds_an_interior_sphere_center():
    target = np.array([0.5, 0.3, 0.2])
    p = params(beta=1e4, n_particles=100, max_iters=2000, seed=7)
    res = run(sphere(target), simplex(3), p)
    np.testing.assert_allclose(res.point, target, atol=1e-2)
    assert simplex(3).contains(res.point, 1e-10)
    np.testing.assert_allclose(res.best_point, target, atol=5e-2)
    assert res.best_value < 1e-3


def test_run_zero_iteration_budget_records_only_the_start():
    res = run(sphere(np.zeros(2)), simplex(2), params(max_iters=0, n_particles=6))
    assert len(res.trace) == 1
    assert res.trace.records[0].iteration == 0
    assert res.ensemble.iteration == 0
    assert res.trace.b_values()[0] == 0.0
    assert res.trace.a_values()[0] > 0.0


def test_run_infinite_tolerance_stops_immediately():
    res = run(
        sphere(np.zeros(2)),
        simplex(2),
        params(residual_tol=math.inf, max_iters=500, n_particles=6),
    )
    assert list(res.trace.iterations()) == [0]


def test_run_zero_tolerance_exhausts_the_budget():
    res = run(sphere(np.zeros(2)), simplex(2), params(residual_tol=0.0, max_iters=37))
    assert res.ensemble.iteration == 37
    assert res.trace.records[-1].iteration == 37


def test_run_thinning_keeps_stride_and_final_record():
    res = run(
        sphere(np.zeros(2)),
        simplex(2),
        params(residual_tol=0.0, max_iters=50),
        thin=7,
    )
    got = list(res.trace.iterations())
    assert got == [0, 7, 14, 21, 28, 35, 42, 49, 50]
    res2 = run(
        sphere(np.zeros(2)), simplex(2), params(residual_tol=0.0, max_iters=10), thin=1000
    )
    assert list(res2.trace.iterations()) == [0, 10]
    with pytest.raises(ConfigurationError):
        run(sphere(np.zeros(2)), simplex(2), params(), thin=0)


def test_run_trace_is_strictly_increasing_with_monotone_sums():
    res = run(
        sphere(np.array([0.9, 0.1])),
        simplex(2),
        params(residual_tol=0.0, max_iters=120, seed=3),
    )
    its = res.trace.iterations()
    assert np.all(np.diff(its) > 0)
    assert np.all(np.diff(res.trace.a_values()) >= 0)
    assert np.all(np.diff(res.trace.b_values()) >= 0)
    assert np.all(res.trace.dispersions() >= 0)
    assert np.all(res.trace.residuals() >= 0)


def test_run_is_deterministic_for_a_fixed_seed():
    p = params(n_particles=20, max_iters=200, seed=42)
    a = run(sphere(np.array([0.2, 0.3, 0.5])), simplex(3), p)
    b = run(sphere(np.array([0.2, 0.3, 0.5])), simplex(3), p)
    assert np.array_equal(a.ensemble.positions, b.ensemble.positions)
    assert np.array_equal(a.point, b.point)
    assert np.array_equal(a.trace.residuals(), b.trace.residuals())
    assert np.array_equal(a.trace.a_values(), b.trace.a_values())


def test_run_reports_nonfinite_objective_with_the_iteration():
    state = {"calls": 0}

    def flaky(rows):
        state["calls"] += 1
        return np.zeros(len(rows)) if state["calls"] <= 1 else np.full(len(rows), math.nan)

    obj = Objective(flaky, "flaky")
    with pytest.raises(NumericDomainError, match="iteration 1"):
        run(obj, simplex(2), params(n_particles=6, max_iters=10))
    always_bad = Objective(lambda rows: np.full(len(rows), math.nan), "nan")
    with pytest.raises(NumericDomainError, match="iteration 0"):
        run(always_bad, simplex(2), params(n_particles=6))


def test_mean_pairwise_sq_matches_brute_force():
    rng = np.random.default_rng(4)
    pos = rng.normal(size=(9, 3))
    acc = 0.0
    for i in range(9):
        for j in range(i):
            acc += float(((pos[i] - pos[j]) ** 2).sum())
    expected = acc / (9 * 8 / 2)
    assert mean_pairwise_sq(pos) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ConfigurationError):
        mean_pairwise_sq(pos[:1])


def test_path_sums_obey_the_geometric_series_bound():
    # with contraction margin m > 0 and matched particle count / dimension,
    # across-run means of the cumulative sums stay below
    # sqrt(2 * Var0) * ((d-1)/d) / (1 - exp(-h*m/2)) up to a x1.5 slack
    d = n = 8
    target = np.full(d, 1 / d)
    obj = sphere(target)
    proj = simplex(d)
    m = (2 * 1.0 - 0.5**2) - 1.0**2 * 0.1
    a_final, b_final, var0 = [], [], []
    for seed in range(64):
        p = params(n_particles=n, seed=seed, max_iters=400, residual_tol=0.0)
        res = run(obj, proj, p)
        a_final.append(res.trace.a_values()[-1])
        b_final.append(res.trace.b_values()[-1])
        var0.append(res.trace.dispersions()[0] * (n - 1) / (2 * n))
    bound = math.sqrt(2 * np.mean(var0)) * ((d - 1) / d) / (1 - math.exp(-0.1 * m / 2))
    assert np.mean(a_final) <= 1.5 * bound
    assert np.mean(b_final) <= 1.5 * bound


# ------------------------------------------------------------------- traces


def test_trace_csv_round_trip(tmp_path):
    res = run(
        sphere(np.array([0.6, 0.4])),
        simplex(2),
        params(n_particles=6, max_iters=20, residual_tol=0.0),
    )
    path = tmp_path / "trace.csv"
    write_trace_csv(res.trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == trace_csv_header(2)
    assert lines[0].split(",") == [
        "iter", "residual", "dispersion", "best_L",
        "consensus_0", "consensus_1", "com_0", "com_1",
        "A_n", "B_n", "err_ref",
    ]
    assert len(lines) == 1 + len(res.trace)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[-1] == ""  # no reference error attached
    assert float(first[1]) == res.trace.residuals()[0]


def test_trace_csv_rejects_empty_trace(tmp_path):
    with pytest.raises(ConfigurationError):
        write_trace_csv(RunTrace(), tmp_path / "x.csv")
