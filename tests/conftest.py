"""Shared fixtures: a small calibrated synthetic market used across suites.

The d=3 market is built so the tangency portfolio sits strictly inside the
simplex: the generator drift is proportional to sigma @ w_target, which
makes w_target the unconstrained max-Sharpe direction, and the scale factor
sharpens the Sharpe peak enough that consensus optimization at moderate
beta locks onto it.
"""

import numpy as np
import pytest

from cbopt import estimate_stats, log_returns, metaio, synthetic_market

MARKET_SEED = 20190103
MARKET_ROWS = 300


def make_market_stats(rf: float = 0.0):
    vols = np.array([0.015, 0.018, 0.022])
    corr = np.array(
        [
            [1.00, 0.30, 0.20],
            [0.30, 1.00, 0.25],
            [0.20, 0.25, 1.00],
        ]
    )
    sigma_true = corr * np.outer(vols, vols)
    w_target = np.array([0.6, 0.3, 0.1])
    mu_true = 800.0 * (sigma_true @ w_target)
    series = synthetic_market(MARKET_SEED, 3, MARKET_ROWS, mu_true, sigma_true)
    return estimate_stats(log_returns(series), rf=rf)


@pytest.fixture(scope="session")
def market3():
    return make_market_stats()


@pytest.fixture
def cap():
    """``cap(k)`` caps ``metaio.usable_cpus()`` at k, as ``--workers k`` does
    for a CLI command, until the test ends; ``cap(None)`` lifts the cap."""
    tokens = []
    yield lambda k: tokens.append(metaio._CPU_CAP.set(k))
    for token in reversed(tokens):
        metaio._CPU_CAP.reset(token)
