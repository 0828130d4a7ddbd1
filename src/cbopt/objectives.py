"""Objective functions for the ensemble solver and portfolio scoring.

An :class:`Objective` is its batch evaluator, and a single point is scored
as a one-row batch, so each formula is written once (BLAS may still round a
Sharpe row in a larger block differently).  The solver only ever
needs point values, never derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DegeneratePortfolioError
from .metaio import _each_block, _row_sq, fmt_float, fmt_vector

__all__ = [
    "Objective",
    "MarketStats",
    "sphere",
    "rastrigin",
    "neg_sharpe",
    "sharpe_components",
]

DEFAULT_VAR_FLOOR = 1e-12


@dataclass(frozen=True)
class Objective:
    """A batch evaluator and the descriptor that names it.

    ``batch`` maps an ``(m, d)`` array to an ``(m,)`` array, one value per
    row; a single point is scored as one row.  ``descriptor`` is a stable
    identifier echoed into run metadata.
    """

    batch: Callable[[np.ndarray], np.ndarray]
    descriptor: str

    def __call__(self, w) -> float:
        return float(self._values(np.asarray(w, dtype=float)[None])[0])

    def eval_many(self, rows) -> np.ndarray:
        return self._values(np.asarray(rows, dtype=float))

    def _values(self, rows) -> np.ndarray:
        values = np.asarray(self.batch(rows), dtype=float)
        if values.shape != (len(rows),):
            raise ConfigurationError(f"objective {self.descriptor} must return one value per row")
        return values


def _check_names(names) -> tuple[str, ...]:
    """``names`` as a tuple, once each is nonempty, unique and free of
    whitespace and commas; the one asset-name rule of the package."""
    names = tuple(names)
    if not names:
        raise ConfigurationError("need at least one asset name")
    seen = set()
    for name in names:
        if not name or any(ch.isspace() for ch in name) or "," in name:
            raise ConfigurationError(f"invalid asset name {name!r}")
        if name in seen:
            raise ConfigurationError(f"duplicate asset name {name!r}")
        seen.add(name)
    return names


@dataclass(frozen=True)
class MarketStats:
    """First two moments of per-period asset returns plus a risk-free rate.

    ``sigma`` must be symmetric (to 1e-12) and positive semidefinite
    (smallest eigenvalue >= -1e-10); violations raise ``ConfigurationError``
    at construction time.
    """

    mu: np.ndarray
    sigma: np.ndarray
    rf: float = 0.0
    asset_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if mu.ndim != 1 or mu.size == 0:
            raise ConfigurationError("mu must be a nonempty vector")
        d = mu.shape[0]
        if sigma.shape != (d, d):
            raise ConfigurationError(f"sigma must be ({d}, {d}), got {sigma.shape}")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise ConfigurationError("market moments must be finite")
        if not np.isfinite(float(self.rf)):
            raise ConfigurationError("risk-free rate must be finite")
        if np.max(np.abs(sigma - sigma.T), initial=0.0) > 1e-12:
            raise ConfigurationError("sigma must be symmetric to 1e-12")
        if float(np.linalg.eigvalsh(sigma).min()) < -1e-10:
            raise ConfigurationError("sigma must be positive semidefinite")
        names = _check_names(self.asset_names or [f"A{i + 1}" for i in range(d)])
        if len(names) != d:
            raise ConfigurationError(f"expected {d} asset names, got {len(names)}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "rf", float(self.rf))
        object.__setattr__(self, "asset_names", names)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    def with_rf(self, rf: float) -> "MarketStats":
        return MarketStats(self.mu, self.sigma, rf, self.asset_names)


def sphere(center) -> Objective:
    """Squared Euclidean distance to ``center``."""
    c = np.asarray(center, dtype=float)
    if c.ndim != 1 or not np.all(np.isfinite(c)):
        raise ConfigurationError("sphere center must be a finite vector")
    return Objective(lambda rows: _row_sq(rows, c), f"sphere:{fmt_vector(c)}")


def rastrigin(shift, scale: float = 1.0) -> Objective:
    """Shifted, scaled Rastrigin: many local minima, global minimum 0 at
    ``shift``.  Coordinates are standardized as ``z = (w - shift)/scale``."""
    s = np.asarray(shift, dtype=float)
    if s.ndim != 1 or not np.all(np.isfinite(s)):
        raise ConfigurationError("rastrigin shift must be a finite vector")
    scale = float(scale)
    if not (scale > 0) or not np.isfinite(scale):
        raise ConfigurationError("rastrigin scale must be finite and positive")

    def batch(rows):
        # (z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0).sum(axis=1) for
        # z = (rows - s) / scale, in row blocks, one ufunc at a time.
        out = np.empty(len(rows))

        def body(lo, hi, z_all, acc_all):
            z, acc = z_all[: hi - lo], acc_all[: hi - lo]
            np.subtract(rows[lo:hi], s, out=z)
            np.divide(z, scale, out=z)
            np.multiply(z, z, out=acc)
            np.multiply(2.0 * np.pi, z, out=z)
            np.cos(z, out=z)
            np.multiply(10.0, z, out=z)
            np.subtract(acc, z, out=acc)
            np.add(acc, 10.0, out=acc)
            acc.sum(axis=1, out=out[lo:hi])

        _each_block(rows.shape, body, 2)
        return out

    return Objective(batch, f"rastrigin:{fmt_vector(s)};scale={fmt_float(scale)}")


def row_variances(rows: np.ndarray, sigma: np.ndarray, floor: float) -> np.ndarray:
    """``w' Sigma w`` for every row ``w`` of an ``(m, d)`` block, floor-checked.

    One BLAS product plus a row-wise dot; an empty block returns an empty
    array without a check.  Left out of ``__all__``.
    """
    var = np.einsum("ij,ij->i", rows @ sigma, rows)
    if var.size and float(var.min()) < floor:
        raise DegeneratePortfolioError(
            f"portfolio variance {float(var.min()):.6e} below floor {floor:.6e}"
        )
    return var


def _sharpe_rows(stats: MarketStats, rows: np.ndarray):
    """``(ret, risk, sharpe)`` arrays for the rows of an ``(m, d)`` block.

    The one Sharpe scorer: :func:`neg_sharpe`, :func:`sharpe_components`
    and ``market.sample_frontier`` all score through it.
    """
    ret = rows @ stats.mu
    risk = np.sqrt(row_variances(rows, stats.sigma, DEFAULT_VAR_FLOOR))
    return ret, risk, (ret - stats.rf) / risk


def neg_sharpe(stats: MarketStats) -> Objective:
    """Negated Sharpe ratio ``-(w'mu - rf)/sqrt(w'Sigma w)``.

    Minimizing this over the simplex maximizes the portfolio's excess
    return per unit risk.  Evaluation raises ``DegeneratePortfolioError``
    whenever the portfolio variance drops below ``DEFAULT_VAR_FLOOR``.
    """
    return Objective(
        lambda rows: -_sharpe_rows(stats, rows)[2],
        f"neg_sharpe:d={stats.dim};rf={fmt_float(stats.rf)}",
    )


def sharpe_components(stats: MarketStats, w) -> tuple[float, float, float]:
    """Return ``(ret, risk, sharpe)`` for one portfolio.

    ``ret = w'mu``, ``risk = sqrt(w'Sigma w)``, ``sharpe = (ret - rf)/risk``.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (stats.dim,):
        raise ConfigurationError(f"expected a {stats.dim}-vector, got shape {w.shape}")
    return tuple(float(v[0]) for v in _sharpe_rows(stats, w[None]))
