"""Shared fixtures and helpers.

A small calibrated synthetic market used across suites: the d=3 market is
built so the tangency portfolio sits strictly inside the simplex: the
generator drift is proportional to sigma @ w_target, which makes w_target
the unconstrained max-Sharpe direction, and the scale factor sharpens the
Sharpe peak enough that consensus optimization at moderate beta locks onto
it.

The fast-path tests share the rest: bit comparison (``bits``,
``assert_same_bits``), their inputs (``values``, ``params``, ``params_for``,
``projector_for``, ``objective_for``, ``run_of``), the ``block_cells(k)`` and
``cpus(k)`` fixtures that set the kernels' row-block size and the CPU count
the host reports, and the guards of the threaded and forked paths
(``no_warnings``, ``no_children_left``, ``deadline``).  The references they
compare against live in ``oracles.py``.
"""

import contextlib
import os
import signal
import threading
import warnings

import numpy as np
import pytest

from cbopt import estimate_stats, log_returns, metaio, synthetic_market
from cbopt.core import CboParams, run
from cbopt.objectives import rastrigin, sphere
from cbopt.projections import ball, box, simplex

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


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` makes the host report k usable CPUs (affinity mask and CPU
    count) until the test ends, and returns the names of the threads started
    since that call: one list, emptied by each call."""
    started = []
    real_start = threading.Thread.start

    def start(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)

    def report(k: int) -> list:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: k)
        started.clear()
        return started

    return report


@pytest.fixture
def block_cells(monkeypatch):
    """``block_cells(k)`` cuts the kernels' arrays into row blocks of about k
    cells until the test ends; ``block_cells(None)`` restores the default."""
    default = metaio._BLOCK_CELLS

    def set_cells(cells) -> None:
        monkeypatch.setattr(metaio, "_BLOCK_CELLS", default if cells is None else cells)

    return set_cells


@pytest.fixture
def deadline():
    """Fail a test that runs for 120 s: a forked writer stuck on its pipe,
    or threads that never finish."""
    def expire(signum, frame):
        raise TimeoutError("the test did not finish within 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


# ------------------------------------------------------------------ helpers


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(bits(got), bits(want))


def values(seed, shape) -> np.ndarray:
    """Normal draws on mixed scales, with signed zeros and exact integers."""
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    flat = out.reshape(-1)
    flat[::7] = -0.0
    flat[3::11] = np.round(flat[3::11])
    return out


@contextlib.contextmanager
def no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def no_children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def projector_for(kind: str, d: int):
    if kind == "simplex":
        return simplex(d)
    if kind == "box":
        return box(np.full(d, -0.3), np.full(d, 0.8))
    if kind == "unbounded":
        return box(np.full(d, -np.inf), np.full(d, np.inf))
    return ball(np.full(d, 0.2), 0.9)


def objective_for(kind: str, d: int):
    center = np.linspace(-0.4, 0.6, d)
    return rastrigin(center, 0.5) if kind == "ball" else sphere(center)


def params(**kw):
    base = dict(lam=1.0, sigma=0.5, beta=100.0, h=0.1, n_particles=8)
    base.update(kw)
    return CboParams(**base)


def params_for(n, mode, **kw):
    kw = {"seed": 11, "max_iters": 40, **kw}
    return CboParams(lam=1.0, sigma=0.7, beta=30.0, h=0.1, n_particles=n, noise_mode=mode, **kw)


def run_of(kind, mode):
    """A 25-step run of 11 particles in 9 dimensions, every third step
    traced: many row blocks at a block size of 20 cells or less."""
    d = 9
    p = params_for(11, mode, seed=5, max_iters=25, residual_tol=0.0)
    return run(objective_for(kind, d), projector_for(kind, d), p, thin=3)
