import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbopt import (
    Ensemble,
    MarketStats,
    box,
    check_params,
    decay_experiment,
    demo_market,
    laplace_sweep,
    neg_sharpe,
    run,
    simplex,
    sphere,
)
from cbopt.core import RunTrace, TraceRecord
from cbopt.diagnostics import (
    Verdict,
    error_trace,
    summary_text,
    write_error_csv,
    write_laplace_csv,
)
from cbopt.errors import ConfigurationError, NumericDomainError
from cbopt.metaio import _row_sq
from conftest import params


# ------------------------------------------------------------ param checking


def test_reference_parameters_are_satisfied_with_exact_rate():
    report = check_params(params(lam=1.0, sigma=0.5, h=0.1))
    # (2 - 0.25) - 0.1, every operand exact in binary
    assert report.m == 1.65
    assert report.verdict is Verdict.SATISFIED
    assert report.cond_sigma and report.cond_drift and report.cond_h


def test_step_size_condition_is_strict_at_its_edge():
    # h limit is (2*lam - sigma^2)/lam^2 = 1.75; sitting exactly on it fails
    at_edge = check_params(params(lam=1.0, sigma=0.5, h=1.75))
    assert at_edge.verdict is Verdict.VIOLATED
    assert at_edge.cond_h is False
    assert at_edge.m == 0.0
    below = check_params(params(lam=1.0, sigma=0.5, h=1.7))
    assert below.verdict is Verdict.SATISFIED


def test_boundary_case_is_detected_exactly():
    report = check_params(params(lam=0.5, sigma=1.0, h=0.01))
    assert report.verdict is Verdict.BOUNDARY
    assert report.m == -0.0025
    assert report.cond_drift is False


def test_zero_noise_is_a_violation():
    report = check_params(params(sigma=0.0))
    assert report.verdict is Verdict.VIOLATED
    assert report.cond_sigma is False


def test_noise_dominating_drift_is_a_violation():
    report = check_params(params(lam=0.1, sigma=1.0))
    assert report.verdict is Verdict.VIOLATED
    assert report.m < 0


@settings(max_examples=200)
@given(
    st.floats(0.01, 5.0),
    st.floats(0.0, 3.0),
    st.floats(1e-4, 2.0),
)
def test_rate_identity_holds_for_any_parameters(lam, sigma, h):
    report = check_params(params(lam=lam, sigma=sigma, h=h))
    expected = (2.0 * lam - sigma**2) - lam**2 * h
    assert abs(report.m - expected) <= 1e-15 * max(1.0, abs(expected))


def test_squares_that_overflow_are_a_domain_error():
    for kw in ({"lam": 1e308}, {"sigma": 1e200}, {"lam": 1e200, "sigma": 0.0}):
        p = params(**kw)
        with pytest.raises(NumericDomainError, match="overflows"):
            check_params(p)
    # Python's ** (libm pow) and x * x differ in the last bit for some
    # doubles; m keeps the bits of **.
    rng = np.random.default_rng(5)
    for lam, sigma in rng.uniform(0.01, 5.0, (20_000, 2)).tolist():
        if lam**2 != lam * lam or sigma**2 != sigma * sigma:
            report = check_params(params(lam=lam, sigma=sigma, h=0.01))
            assert report.m == (2.0 * lam - sigma**2) - lam**2 * 0.01


@pytest.mark.parametrize("lam,sigma", [(1e-200, 0.0), (1e-170, 1e-200)])
def test_a_lam_whose_square_underflows_has_no_step_bound(lam, sigma):
    # lam**2 == 0, so (2*lam - sigma**2)/lam**2 would divide by zero; the
    # bound is +inf and any h > 0 meets it once the drift dominates.
    report = check_params(params(lam=lam, sigma=sigma, h=0.1))
    assert lam**2 == 0.0 and report.m == 2.0 * lam
    assert report.cond_drift and report.cond_h
    assert report.verdict is (Verdict.SATISFIED if sigma > 0 else Verdict.VIOLATED)


def test_summary_text_structure():
    good = summary_text(check_params(params()))
    assert "m=1.65" in good
    assert "verdict=satisfied" in good
    assert "WARNING" not in good
    boundary = summary_text(check_params(params(lam=0.5, sigma=1.0, h=0.01)))
    assert "verdict=boundary" in boundary
    assert "WARNING Boundary: 2λ = σ²" in boundary
    assert "m=-0.0025" in boundary
    violated = summary_text(check_params(params(sigma=0.0)))
    assert "verdict=violated" in violated
    assert "sigma > 0" in violated


# ------------------------------------------------------------------- decay


def test_noise_free_decay_matches_the_closed_form():
    # sigma = 0 on an unbounded box: pairwise distances scale by exactly
    # (1 - lam*h)^2 per step
    p = params(sigma=0.0, lam=1.0, h=0.1, n_particles=6, seed=0)
    proj = box(np.full(2, -1e9), np.full(2, 1e9))
    report = decay_experiment(sphere(np.zeros(2)), proj, p, runs=3, horizon=20, seed=1)
    ratio = report.mean_pairwise_sq / report.mean_pairwise_sq[0]
    expected = 0.81 ** np.arange(21)
    np.testing.assert_allclose(ratio, expected, rtol=1e-12)
    assert report.applicable is False  # sigma = 0 violates the conditions


def test_projection_only_speeds_up_noise_free_decay():
    p = params(sigma=0.0, lam=1.0, h=0.1, n_particles=6, seed=0)
    report = decay_experiment(
        sphere(np.zeros(3)), simplex(3), p, runs=3, horizon=15, seed=2
    )
    envelope = report.mean_pairwise_sq[0] * 0.81 ** np.arange(16)
    assert np.all(report.mean_pairwise_sq <= envelope * (1 + 1e-12))


def test_tiny_initial_spread_starts_near_zero_dispersion():
    report = decay_experiment(
        sphere(np.zeros(3)),
        simplex(3),
        params(n_particles=4),
        runs=2,
        horizon=3,
        seed=0,
        init_std=1e-12,
    )
    assert report.mean_pairwise_sq[0] < 1e-20


def test_statistical_decay_stays_under_the_envelope():
    mu, sigma = demo_market(5)
    obj = neg_sharpe(MarketStats(mu, sigma))
    report = decay_experiment(
        obj, simplex(5), params(beta=100.0), runs=50, horizon=30, seed=11
    )
    assert report.applicable is True
    assert report.pairwise_ok.all()
    assert report.consensus_ok.all()
    assert report.m == 1.65
    assert report.slack == 1.0 + 5.0 / math.sqrt(50)


def test_decay_bound_columns_are_exactly_geometric():
    report = decay_experiment(
        sphere(np.zeros(3)), simplex(3), params(), runs=4, horizon=12, seed=3
    )
    ratios = report.pairwise_bound[1:] / report.pairwise_bound[:-1]
    np.testing.assert_allclose(ratios, math.exp(-0.1 * 1.65), rtol=1e-12)
    # consensus envelope: 2*((N-1)/N)^2 * Var0 at n = 0, same ratio after
    n = report.n_particles
    assert report.consensus_bound[0] == pytest.approx(
        2.0 * ((n - 1) / n) ** 2 * report.initial_variance, rel=1e-12
    )
    cratios = report.consensus_bound[1:] / report.consensus_bound[:-1]
    np.testing.assert_allclose(cratios, math.exp(-0.1 * 1.65), rtol=1e-12)


def test_decay_report_not_applicable_on_the_boundary():
    report = decay_experiment(
        sphere(np.zeros(2)),
        simplex(2),
        params(lam=0.5, sigma=1.0, h=0.01),
        runs=2,
        horizon=5,
        seed=0,
    )
    assert report.verdict is Verdict.BOUNDARY
    assert report.applicable is False
    assert report.m == -0.0025


def test_decay_validation():
    obj = sphere(np.zeros(2))
    with pytest.raises(ConfigurationError):
        decay_experiment(obj, simplex(2), params(), runs=0, horizon=5, seed=0)
    with pytest.raises(ConfigurationError):
        decay_experiment(obj, simplex(2), params(), runs=2, horizon=-1, seed=0)


def test_a_stack_too_large_to_hold_fails_before_any_seed_is_spawned(monkeypatch):
    # 10**12 runs of (8, 4) are 2.56e14 bytes, more than a 64-bit address
    # space maps.  Spawning 10**12 seeds first would take hours, so a spawn
    # fails the test at once.
    spawned = []

    class Recording(np.random.SeedSequence):
        def spawn(self, n_children):
            spawned.append(n_children)
            raise AssertionError("a seed was spawned before the stack was allocated")

    monkeypatch.setattr(np.random, "SeedSequence", Recording)
    with pytest.raises(MemoryError):
        decay_experiment(sphere(np.zeros(4)), simplex(4), params(), runs=10**12, horizon=2,
                         seed=0)
    assert spawned == []


def test_decay_csv_layout(tmp_path):
    report = decay_experiment(
        sphere(np.zeros(2)), simplex(2), params(), runs=2, horizon=4, seed=5
    )
    path = tmp_path / "decay.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "n,mean_pairwise_sq,pairwise_bound,pairwise_ok,"
        "mean_consensus_sq,consensus_bound,consensus_ok"
    )
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[3] in {"true", "false"}


# ----------------------------------------------------------------- laplace


def two_point_ensemble():
    return Ensemble(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))


def test_laplace_gap_decreases_and_hits_known_values():
    pts = laplace_sweep(two_point_ensemble(), [0.0, math.log(3.0), 10.0, 100.0])
    gaps = [p.gap for p in pts]
    assert gaps[0] == pytest.approx(0.5, abs=1e-15)  # beta 0: plain mean
    assert gaps[1] == pytest.approx(0.25, abs=1e-14)
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-40


def test_laplace_tied_best_converges_to_the_midpoint():
    ens = Ensemble(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]]),
        np.array([2.0, 2.0, 5.0]),
    )
    (point,) = laplace_sweep(ens, [1e6])
    np.testing.assert_allclose(point.consensus, [0.5, 0.0], atol=1e-12)


def test_laplace_validation():
    ens = two_point_ensemble()
    with pytest.raises(ConfigurationError):
        laplace_sweep(ens, [])
    with pytest.raises(ConfigurationError):
        laplace_sweep(ens, [-1.0, 2.0])
    with pytest.raises(ConfigurationError):
        laplace_sweep(ens, [1.0, 1.0])
    with pytest.raises(ConfigurationError):
        laplace_sweep(ens, [0.0, math.nan])


def test_laplace_csv_layout(tmp_path):
    pts = laplace_sweep(two_point_ensemble(), [0.0, 1.0, 10.0])
    path = tmp_path / "laplace.csv"
    write_laplace_csv(pts, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "beta,gap,consensus_0"
    assert len(lines) == 4
    with pytest.raises(ConfigurationError):
        write_laplace_csv([], tmp_path / "empty.csv")


# -------------------------------------------------------------- error trace


def test_error_trace_values_and_mutation():
    res = run(
        sphere(np.array([0.6, 0.4])),
        simplex(2),
        params(n_particles=6, max_iters=10, residual_tol=0.0),
    )
    assert all(rec.err_ref is None for rec in res.trace)
    ref = np.array([0.6, 0.4])
    errs = error_trace(res.trace, ref)
    assert errs.shape == (len(res.trace),)
    for rec, err in zip(res.trace, errs):
        assert rec.err_ref == err
        assert err == pytest.approx(
            float(np.linalg.norm(rec.center_of_mass - ref)), abs=1e-15
        )
    # exact reference hit gives a zero error
    zero = error_trace(res.trace, res.trace.records[3].center_of_mass)
    assert zero[3] == 0.0


def test_error_trace_accepts_reference_solutions(market3):
    from cbopt import grid_search_simplex

    res = run(neg_sharpe(market3), simplex(3), params(n_particles=10, max_iters=5))
    ref = grid_search_simplex(neg_sharpe(market3), 3, step=0.5)
    errs = error_trace(res.trace, ref)
    assert np.all(np.isfinite(errs))


def test_error_trace_validation():
    res = run(sphere(np.zeros(2)), simplex(2), params(n_particles=4, max_iters=2))
    with pytest.raises(ConfigurationError):
        error_trace(res.trace, np.zeros(3))
    from cbopt.core import RunTrace

    with pytest.raises(ConfigurationError):
        error_trace(RunTrace(), np.zeros(2))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(2, 300), st.integers(0, 2**32 - 1))
def test_error_trace_and_laplace_gaps_are_the_row_sq_kernel(d, n, seed):
    rng = np.random.default_rng(seed)
    coms = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3)
    ref = rng.standard_normal(d)
    trace = RunTrace([TraceRecord(i, ref, 0.0, 0.0, 0.0, com, 0.0, 0.0)
                      for i, com in enumerate(coms)])
    errs = error_trace(trace, ref)
    ens = Ensemble(coms, rng.standard_normal(n))
    points = laplace_sweep(ens, [0.0, 1.0, 10.0, 1e3])
    best = coms[np.argmin(ens.objective_values)]
    conses = np.array([p.consensus for p in points])
    gaps = np.array([p.gap for p in points])
    assert [rec.err_ref for rec in trace] == list(errs)
    for got, rows, center in ((errs, coms, ref), (gaps, conses, best)):
        want = np.sqrt(_row_sq(rows, center))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # np.linalg.norm, the per-row form these distances used to take
        norms = np.array([np.linalg.norm(row - center) for row in rows])
        assert np.all(np.abs(got - norms) <= 2 * d * np.finfo(float).eps * norms)


def test_error_csv_layout(tmp_path):
    path = tmp_path / "err.csv"
    write_error_csv([0, 1, 2], [1.0, 0.5, 0.25], path)
    assert path.read_text() == "iter,err_ref\n0,1.0\n1,0.5\n2,0.25\n"
