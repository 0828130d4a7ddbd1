import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_blocked_kernels import assert_same_bits

from cbopt import (
    CboParams,
    MarketStats,
    Objective,
    grid_search_simplex,
    init_ensemble,
    neg_sharpe,
    rastrigin,
    run,
    sharpe_components,
    simplex,
    sphere,
)
from cbopt.errors import ConfigurationError, DegeneratePortfolioError
from cbopt.market import sample_frontier
from cbopt.objectives import _sharpe_rows


def two_asset_stats():
    return MarketStats(np.array([0.1, 0.1]), 0.04 * np.eye(2))


def test_sphere_values():
    obj = sphere(np.zeros(2))
    assert obj(np.zeros(2)) == 0.0
    assert obj(np.array([3.0, 4.0])) == 25.0
    c = np.array([0.2, 0.8])
    assert sphere(c)(c) == 0.0


def test_sphere_minimizer_over_simplex_with_exterior_center():
    # brute force over the 1-simplex: center (2, 0) projects to the vertex
    t = np.linspace(0, 1, 10_001)
    cand = np.stack([t, 1 - t], axis=1)
    obj = sphere(np.array([2.0, 0.0]))
    best = cand[int(np.argmin(obj.eval_many(cand)))]
    np.testing.assert_allclose(best, [1.0, 0.0], atol=1e-12)


def test_rastrigin_values():
    obj = rastrigin(np.zeros(1))
    assert obj(np.zeros(1)) == 0.0
    # 0.25 - 10*cos(pi) + 10
    assert obj(np.array([0.5])) == pytest.approx(20.25, abs=1e-12)
    shifted = rastrigin(np.array([0.3, -0.2]), scale=2.0)
    assert shifted(np.array([0.3, -0.2])) == 0.0


@settings(max_examples=200)
@given(st.lists(st.floats(-5.12, 5.12), min_size=1, max_size=6))
def test_rastrigin_nonnegative(ws):
    w = np.array(ws)
    assert rastrigin(np.zeros(len(ws)))(w) >= 0.0


def test_neg_sharpe_single_asset():
    stats = MarketStats(np.array([0.1]), np.array([[0.04]]))
    obj = neg_sharpe(stats)
    assert obj(np.array([1.0])) == pytest.approx(-0.5, abs=1e-15)


def test_neg_sharpe_equal_weights_two_assets():
    obj = neg_sharpe(two_asset_stats())
    w = np.array([0.5, 0.5])
    assert obj(w) == pytest.approx(-0.7071067811865476, abs=1e-15)
    ret, risk, sh = sharpe_components(two_asset_stats(), w)
    assert ret == pytest.approx(0.1, abs=1e-15)
    assert risk == pytest.approx(0.1414213562373095, abs=1e-15)
    assert sh == pytest.approx(0.7071067811865476, abs=1e-15)


def test_sharpe_components_basis_vectors(market3):
    for i in range(market3.dim):
        e = np.zeros(market3.dim)
        e[i] = 1.0
        ret, risk, _ = sharpe_components(market3, e)
        assert ret == pytest.approx(market3.mu[i], abs=1e-15)
        assert risk == pytest.approx(math.sqrt(market3.sigma[i, i]), rel=1e-14)


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_sharpe_identity_and_sign_convention(seed):
    stats = two_asset_stats().with_rf(0.01)
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(2))
    ret, risk, sh = sharpe_components(stats, w)
    assert sh * risk + stats.rf == pytest.approx(ret, abs=1e-12)
    assert neg_sharpe(stats)(w) == pytest.approx(-sh, abs=1e-14)


@settings(max_examples=100)
@given(
    st.floats(0.01, 100.0),
    st.lists(st.floats(0.05, 1.0), min_size=2, max_size=2),
)
def test_sharpe_scale_invariance_at_zero_rf(c, wraw):
    stats = two_asset_stats()
    w = np.array(wraw)
    _, _, sh1 = sharpe_components(stats, w)
    _, _, sh2 = sharpe_components(stats, c * w)
    assert sh2 == pytest.approx(sh1, rel=1e-12)


def test_degenerate_covariance_rejected():
    stats = MarketStats(np.array([0.1, 0.2]), np.zeros((2, 2)))
    with pytest.raises(DegeneratePortfolioError):
        neg_sharpe(stats)(np.array([0.5, 0.5]))
    with pytest.raises(DegeneratePortfolioError):
        sharpe_components(stats, np.array([0.5, 0.5]))


def test_var_floor_is_honored():
    stats = MarketStats(np.array([0.1]), np.array([[1e-8]]))
    # variance 1e-8 is fine at the floor of 1e-12
    assert np.isfinite(neg_sharpe(stats)(np.array([1.0])))


def test_finite_on_many_simplex_points(market3):
    cloud = sample_frontier(market3, 100_000, seed=9)
    for obj in (
        neg_sharpe(market3),
        sphere(np.full(3, 1 / 3)),
        rastrigin(np.full(3, 1 / 3)),
    ):
        vals = obj.eval_many(cloud.weights)
        assert np.all(np.isfinite(vals))


def test_batch_matches_scalar_eval(market3):
    rng = np.random.default_rng(11)
    pts = simplex(3).project_rows(rng.normal(size=(50, 3)))
    for obj in (neg_sharpe(market3), sphere(np.zeros(3)), rastrigin(np.ones(3), 0.7)):
        batch = obj.eval_many(pts)
        loop = np.array([obj(p) for p in pts])
        np.testing.assert_allclose(batch, loop, rtol=1e-14, atol=0)


def test_an_objective_is_its_row_batch():
    obj = Objective(lambda rows: rows.sum(axis=1), "rowsum")
    pts = np.arange(6.0).reshape(3, 2)
    np.testing.assert_array_equal(obj.eval_many(pts), [1.0, 5.0, 9.0])
    assert obj(np.array([2.0, 3.0])) == 5.0


def test_a_scalar_objective_is_no_longer_accepted():
    with pytest.raises(TypeError):
        Objective(fn=lambda w: float(w.sum()), descriptor="total")


MALFORMED_PARAMS = CboParams(lam=1.0, sigma=0.5, beta=10.0, h=0.1, n_particles=4, seed=3,
                             max_iters=5)
ENTRY_POINTS = {
    "eval_many": lambda obj: obj.eval_many(np.full((4, 2), 0.5)),
    "call": lambda obj: obj(np.array([0.5, 0.5])),
    "init_ensemble": lambda obj: init_ensemble(2, MALFORMED_PARAMS, None, 1.0, simplex(2), obj),
    "run": lambda obj: run(obj, simplex(2), MALFORMED_PARAMS),
    "grid_search_simplex": lambda obj: grid_search_simplex(obj, 2, 0.25),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize(
    "batch", [lambda rows: rows.sum(), lambda rows: rows.sum(axis=1, keepdims=True)],
    ids=["scalar", "column"],
)
def test_a_batch_without_one_value_per_row_fails_at_every_entry_point(batch, entry):
    # Neither a block total nor an (m, 1) column is broadcast into values.
    with pytest.raises(ConfigurationError, match="objective malformed must return one value"):
        ENTRY_POINTS[entry](Objective(batch, "malformed"))


def test_market_stats_validation():
    with pytest.raises(ConfigurationError):
        MarketStats(np.array([0.1, 0.2]), np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ConfigurationError):
        MarketStats(np.array([0.1, 0.2]), np.array([[1.0, 2.0], [2.0, 1.0]]))  # eig -1
    with pytest.raises(ConfigurationError):
        MarketStats(np.array([0.1]), np.array([[np.nan]]))
    with pytest.raises(ConfigurationError):
        MarketStats(np.array([0.1, 0.2]), 0.01 * np.eye(2), asset_names=["A", "bad name"])
    with pytest.raises(ConfigurationError):
        MarketStats(np.array([0.1, 0.2]), 0.01 * np.eye(2), asset_names=["only-one"])


def test_market_stats_defaults_and_rf_override():
    stats = MarketStats(np.array([0.1, 0.2]), 0.01 * np.eye(2))
    assert stats.asset_names == ("A1", "A2")
    assert stats.dim == 2
    bumped = stats.with_rf(0.02)
    assert bumped.rf == 0.02
    assert stats.rf == 0.0
    np.testing.assert_array_equal(bumped.mu, stats.mu)


def test_descriptors_name_the_objective(market3):
    assert neg_sharpe(market3).descriptor.startswith("neg_sharpe:")
    assert "sphere:" in sphere(np.zeros(2)).descriptor
    assert "rastrigin:" in rastrigin(np.zeros(2)).descriptor


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_a_point_scores_as_a_one_row_batch(d, seed):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(d))
    f = rng.normal(size=(d, d)) * 0.01
    stats = MarketStats(rng.normal(1e-3, 1e-3, d), f @ f.T + 1e-4 * np.eye(d), rf=1e-4)
    for obj in (sphere(rng.normal(size=d)), rastrigin(rng.normal(size=d), 0.7),
                neg_sharpe(stats)):
        assert_same_bits(obj(w), obj.eval_many(w[None])[0])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_sharpe_components_is_row_zero_of_the_sharpe_scorer(d, seed):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(d))
    f = rng.normal(size=(d, d)) * 0.01
    stats = MarketStats(rng.normal(1e-3, 1e-3, d), f @ f.T + 1e-4 * np.eye(d), rf=1e-4)
    rows = _sharpe_rows(stats, w[None])
    assert_same_bits(sharpe_components(stats, w), [r[0] for r in rows])


def test_duplicate_asset_names_are_rejected():
    with pytest.raises(ConfigurationError, match="duplicate asset name 'A'"):
        MarketStats(np.array([0.1, 0.2, 0.3]), 0.01 * np.eye(3), asset_names=("A", "A", "A"))
