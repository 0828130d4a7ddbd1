import math

import numpy as np
import pytest

from cbopt import (
    CboParams,
    MarketStats,
    cml,
    demo_market,
    estimate_stats,
    grid_search_simplex,
    log_returns,
    neg_sharpe,
    run,
    sample_frontier,
    sharpe_components,
    simplex,
    synthetic_market,
)
from cbopt.errors import (
    ConfigurationError,
    DegeneratePortfolioError,
    EstimationError,
    IngestionError,
)
from cbopt.market import (
    _MAX_DEMO_CELLS,
    ReturnsSeries,
    format_prices,
    format_stats,
    parse_prices,
    parse_stats,
    write_frontier_csv,
)

GOOD = "date,AAA,BBB\n2020-01-01,100,200\n2020-01-02,101,198\n2020-01-03,99,202\n"


# ------------------------------------------------------------------ parsing


def test_parse_prices_happy_path():
    series = parse_prices(GOOD)
    assert series.asset_names == ("AAA", "BBB")
    assert series.dates == ("2020-01-01", "2020-01-02", "2020-01-03")
    np.testing.assert_array_equal(series.prices[:, 0], [100.0, 101.0, 99.0])


def test_parse_prices_sorts_shuffled_rows():
    shuffled = (
        "date,AAA,BBB\n2020-01-03,99,202\n2020-01-01,100,200\n2020-01-02,101,198\n"
    )
    a, b = parse_prices(GOOD), parse_prices(shuffled)
    assert a.dates == b.dates
    np.testing.assert_array_equal(a.prices, b.prices)


@pytest.mark.parametrize(
    "text,row,needle",
    [
        ("date,A\n2020-01-01,1\nnot-a-date,2\n", 2, "bad date"),
        ("date,A\n2020-01-01,1\n2020-01-02,oops\n", 2, "unparsable price"),
        ("date,A\n2020-01-01,1\n2020-01-02,-3\n", 2, "non-positive"),
        ("date,A\n2020-01-01,1\n2020-01-02,0\n", 2, "non-positive"),
        ("date,A\n2020-01-01,1\n2020-01-02,inf\n", 2, "non-positive"),
        ("date,A\n2020-01-01,1\n2020-01-02,2,9\n", 2, "expected 2 fields"),
        ("date,A\n2020-01-01,1\n2020-01-01,2\n", 2, "duplicate date"),
    ],
)
def test_parse_prices_errors_name_the_data_row(text, row, needle):
    with pytest.raises(IngestionError, match=needle) as exc:
        parse_prices(text)
    assert exc.value.row == row


def test_parse_prices_structural_errors():
    with pytest.raises(IngestionError, match="empty"):
        parse_prices("   \n  \n")
    with pytest.raises(IngestionError, match="header"):
        parse_prices("time,A\n2020-01-01,1\n")
    with pytest.raises(IngestionError, match="two data rows"):
        parse_prices("date,A\n2020-01-01,1\n")
    with pytest.raises(ConfigurationError, match="duplicate asset name"):
        parse_prices("date,A,A\n2020-01-01,1,2\n2020-01-02,1,2\n")


def test_price_round_trip_is_exact():
    mu, sigma = demo_market(3)
    series = synthetic_market(3, 3, 40, mu, sigma)
    back = parse_prices(format_prices(series))
    assert back.dates == series.dates
    assert back.asset_names == series.asset_names
    np.testing.assert_array_equal(back.prices, series.prices)


class Allocated(Exception):
    pass


def test_a_demo_market_above_the_cap_is_rejected_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise Allocated

    monkeypatch.setattr(np, "linspace", refuse)
    monkeypatch.setattr(np, "arange", refuse)
    d = math.isqrt(_MAX_DEMO_CELLS)  # 4096: d*d is the cap itself, so it is allowed
    with pytest.raises(Allocated):
        demo_market(d)
    with pytest.raises(ConfigurationError, match=f"d={d + 1} assets needs {d + 1}x{d + 1}"):
        demo_market(d + 1)
    with pytest.raises(ConfigurationError, match="d=20000 assets"):
        demo_market(np.int64(20_000))


# ------------------------------------------------------------------ returns


def test_log_returns_known_value():
    series = parse_prices("date,A\n2020-01-01,100\n2020-01-02,110\n")
    rets = log_returns(series).returns
    assert rets.shape == (1, 1)
    assert rets[0, 0] == pytest.approx(0.09531017980432486, abs=1e-15)


def test_log_returns_telescope_to_the_total():
    mu, sigma = demo_market(4)
    series = synthetic_market(9, 4, 120, mu, sigma)
    total = log_returns(series).returns.sum(axis=0)
    np.testing.assert_allclose(
        total, np.log(series.prices[-1] / series.prices[0]), atol=1e-12
    )


# --------------------------------------------------------------- estimation


def test_estimate_stats_single_asset_by_hand():
    rets = ReturnsSeries(np.array([[0.01], [0.03]]), ("A",))
    stats = estimate_stats(rets)
    assert stats.mu[0] == pytest.approx(0.02, abs=1e-18)
    assert stats.sigma[0, 0] == pytest.approx(2e-4, rel=1e-12)


def test_estimate_stats_is_exactly_symmetric():
    rng = np.random.default_rng(6)
    rets = ReturnsSeries(rng.normal(size=(30, 5)) * 0.01, tuple("ABCDE"))
    sigma = estimate_stats(rets).sigma
    assert np.array_equal(sigma, sigma.T)


def test_estimate_stats_short_sample_warns_but_works():
    rng = np.random.default_rng(0)
    rets = ReturnsSeries(rng.normal(size=(3, 4)) * 0.01, ("A", "B", "C", "D"))
    with pytest.warns(UserWarning, match="rank-deficient"):
        stats = estimate_stats(rets)
    assert stats.dim == 4
    with pytest.raises(EstimationError):
        estimate_stats(ReturnsSeries(np.zeros((1, 2)) + 0.01, ("A", "B")))


def test_estimate_stats_asset_permutation_equivariance():
    rng = np.random.default_rng(12)
    arr = rng.normal(size=(40, 4)) * 0.02
    perm = np.array([2, 0, 3, 1])
    base = estimate_stats(ReturnsSeries(arr, ("A", "B", "C", "D")))
    # C-contiguous copy so numpy reduces each column in the same order
    shuffled = np.ascontiguousarray(arr[:, perm])
    permuted = estimate_stats(ReturnsSeries(shuffled, ("C", "A", "D", "B")))
    assert np.array_equal(permuted.mu, base.mu[perm])
    assert np.array_equal(permuted.sigma, base.sigma[np.ix_(perm, perm)])


# ------------------------------------------------------------ synthetic data


def test_synthetic_market_zero_noise_is_a_pure_drift_path():
    series = synthetic_market(0, 2, 10, np.zeros(2), np.zeros((2, 2)))
    np.testing.assert_array_equal(series.prices, np.full((10, 2), 100.0))
    drift = synthetic_market(0, 1, 5, np.array([0.1]), np.zeros((1, 1)))
    np.testing.assert_allclose(
        drift.prices[:, 0], 100.0 * np.exp(0.1 * np.arange(5)), rtol=1e-14
    )


def test_synthetic_market_recovers_the_true_moments():
    mu_true, sigma_true = demo_market(3)
    series = synthetic_market(21, 3, 10_001, mu_true, sigma_true)
    stats = estimate_stats(log_returns(series))
    band = 4.0 * np.sqrt(np.diag(sigma_true) / 10_000)
    assert np.all(np.abs(stats.mu - mu_true) < band)
    # gaussian sampling noise of the covariance entries
    v = np.diag(sigma_true)
    sig_band = 4.0 * np.sqrt((np.outer(v, v) + sigma_true**2) / 10_000)
    assert np.all(np.abs(stats.sigma - sigma_true) < sig_band)


def test_synthetic_market_validation():
    with pytest.raises(ConfigurationError):
        synthetic_market(0, 2, 10, np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ConfigurationError):
        synthetic_market(0, 2, 10, np.zeros(2), np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(ConfigurationError):
        synthetic_market(0, 2, 1, np.zeros(2), np.eye(2))
    with pytest.raises(ConfigurationError):
        synthetic_market(0, 2, 10, np.zeros(3), np.eye(2))


def test_synthetic_market_deterministic_per_seed():
    mu, sigma = demo_market(2)
    a = synthetic_market(5, 2, 50, mu, sigma)
    b = synthetic_market(5, 2, 50, mu, sigma)
    c = synthetic_market(6, 2, 50, mu, sigma)
    np.testing.assert_array_equal(a.prices, b.prices)
    assert not np.array_equal(a.prices, c.prices)


# ----------------------------------------------------------------- frontier


def test_frontier_samples_live_on_the_simplex(market3):
    cloud = sample_frontier(market3, 5000, seed=1)
    assert cloud.weights.shape == (5000, 3)
    assert np.all(cloud.weights >= 0)
    np.testing.assert_allclose(cloud.weights.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(cloud.risk > 0)
    np.testing.assert_allclose(
        cloud.sharpe, (cloud.ret - market3.rf) / cloud.risk, atol=1e-14
    )


def test_frontier_sampling_is_uniform_in_the_mean():
    stats = MarketStats(np.full(4, 1e-4), 1e-4 * np.eye(4))
    cloud = sample_frontier(stats, 100_000, seed=3)
    np.testing.assert_allclose(cloud.weights.mean(axis=0), 0.25, atol=0.005)


def test_frontier_single_asset_degenerates_to_one_point():
    stats = MarketStats(np.array([2e-4]), np.array([[1e-4]]))
    cloud = sample_frontier(stats, 100, seed=0)
    np.testing.assert_array_equal(cloud.weights, np.ones((100, 1)))


def test_frontier_zero_samples_and_validation(market3, tmp_path):
    cloud = sample_frontier(market3, 0, seed=0)
    assert len(cloud) == 0
    path = tmp_path / "f.csv"
    write_frontier_csv(cloud, path)
    assert path.read_text() == "risk,ret,sharpe,w1,w2,w3\n"
    with pytest.raises(ConfigurationError):
        sample_frontier(market3, -1, seed=0)


def test_frontier_cloud_never_beats_a_dense_grid(market3):
    cloud = sample_frontier(market3, 20_000, seed=77)
    best = grid_search_simplex(neg_sharpe(market3), 3, step=0.001)
    grid_sharpe = -best.value
    assert cloud.sharpe.max() < grid_sharpe


def test_degenerate_cloud_portfolio_is_rejected():
    stats = MarketStats(np.array([1e-4, 1e-4]), np.zeros((2, 2)))
    with pytest.raises(DegeneratePortfolioError):
        sample_frontier(stats, 10, seed=0)


# ---------------------------------------------------------------------- cml


def test_cml_slope_and_membership():
    intercept, slope = cml(0.0, (0.2, 0.1))
    assert intercept == 0.0
    assert slope == pytest.approx(0.5, abs=1e-15)
    assert intercept + slope * 0.2 == pytest.approx(0.1, abs=1e-14)
    intercept, _ = cml(0.01, (0.2, 0.1))
    assert intercept == 0.01
    with pytest.raises(DegeneratePortfolioError):
        cml(0.0, (0.0, 0.1))
    with pytest.raises(ConfigurationError):
        cml(math.nan, (0.2, 0.1))


# ----------------------------------------------------------- stats text form


def test_stats_text_round_trip_is_exact(market3):
    back = parse_stats(format_stats(market3))
    assert np.array_equal(back.mu, market3.mu)
    assert np.array_equal(back.sigma, market3.sigma)
    assert back.rf == market3.rf
    assert back.asset_names == market3.asset_names


def test_parse_stats_rejects_malformed_text():
    with pytest.raises(ConfigurationError, match="missing field"):
        parse_stats("d=2\nrf=0.0\n")
    with pytest.raises(ConfigurationError, match="malformed stats line"):
        parse_stats("just some words\n")


# ------------------------------------------------- solver beats random search


def test_solver_dominates_the_random_cloud(market3):
    cloud = sample_frontier(market3, 20_000, seed=77)
    params = CboParams(
        lam=1.0, sigma=0.5, beta=1e4, h=0.1, n_particles=300, seed=5, max_iters=3000
    )
    res = run(neg_sharpe(market3), simplex(3), params)
    _, _, solver_sharpe = sharpe_components(market3, res.point)
    assert solver_sharpe >= cloud.sharpe.max() - 1e-6
