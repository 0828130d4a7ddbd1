"""Price ingestion, return statistics, and frontier sampling.

The data path is deliberately plain: a prices CSV with a ``date`` column
and one positive price column per asset comes in, log returns and sample
moments come out, and a Monte Carlo cloud of random feasible portfolios
gives the risk/return backdrop against which a solver result is judged.
That cloud is drawn in seeded chunks of ``_FRONTIER_CHUNK`` rows, scored
as they are drawn and drawn again where its weights are read or written,
so it never holds its ``(n, d)`` weights.

A seeded geometric random-walk generator produces synthetic price files
for tests and demos, so no real market data is required anywhere.
"""

from __future__ import annotations

import datetime as _dt
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegeneratePortfolioError,
    EstimationError,
    IngestionError,
)
from .metaio import _is_int, _table_rows, _write_csv, format_metadata, parse_metadata, parse_vector
from .objectives import MarketStats, _check_names, _sharpe_rows

__all__ = [
    "PriceSeries",
    "ReturnsSeries",
    "FrontierCloud",
    "parse_prices",
    "format_prices",
    "log_returns",
    "estimate_stats",
    "synthetic_market",
    "demo_market",
    "sample_frontier",
    "cml",
    "format_stats",
    "parse_stats",
    "write_frontier_csv",
]

_FRONTIER_CHUNK = 8192

# Cells of each d x d demo matrix: 2**24 float64 is 128 MiB, so a mistyped
# --assets is an error line instead of gigabytes of swap.
_MAX_DEMO_CELLS = 1 << 24

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _parse_date(text: str) -> _dt.date:
    """The date of the text ``YYYY-MM-DD`` (what ``synth`` writes), else a
    ``ConfigurationError``.  ``date.fromisoformat`` alone also reads
    ``20200101`` and week dates from Python 3.11 on, so which files parse
    would depend on the version."""
    try:
        if isinstance(text, str) and _ISO_DATE.fullmatch(text):
            return _dt.date.fromisoformat(text)
    except ValueError:  # a month or day out of range
        pass
    raise ConfigurationError(f"not a YYYY-MM-DD date: {text!r}")


@dataclass(frozen=True)
class PriceSeries:
    """T rows of positive prices on strictly increasing ISO dates."""

    dates: tuple[str, ...]
    prices: np.ndarray
    asset_names: tuple[str, ...]

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        names = _check_names(self.asset_names)
        dates = tuple(self.dates)
        if prices.ndim != 2 or prices.shape != (len(dates), len(names)):
            raise ConfigurationError(
                f"prices must be ({len(dates)}, {len(names)}), got {prices.shape}"
            )
        if len(dates) < 2:
            raise ConfigurationError("a price series needs at least two rows")
        parsed = [_parse_date(d) for d in dates]
        if any(b <= a for a, b in zip(parsed, parsed[1:])):
            raise ConfigurationError("dates must be strictly increasing")
        if not np.all(np.isfinite(prices)) or not np.all(prices > 0):
            raise ConfigurationError("prices must be finite and positive")
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "asset_names", names)

    @property
    def n_periods(self) -> int:
        return self.prices.shape[0]

    @property
    def dim(self) -> int:
        return self.prices.shape[1]


@dataclass(frozen=True)
class ReturnsSeries:
    """Per-period log returns, one column per asset."""

    returns: np.ndarray
    asset_names: tuple[str, ...]

    def __post_init__(self):
        arr = np.asarray(self.returns, dtype=float)
        names = _check_names(self.asset_names)
        if arr.ndim != 2 or arr.shape[1] != len(names):
            raise ConfigurationError("returns must be a (T-1, d) array")
        if not np.all(np.isfinite(arr)):
            raise ConfigurationError("returns must be finite")
        object.__setattr__(self, "returns", arr)
        object.__setattr__(self, "asset_names", names)


class FrontierCloud:
    """Monte Carlo sample of feasible portfolios with their scores.

    ``ret``, ``risk`` and ``sharpe`` are n-vectors and ``weights`` is
    ``(n, d)``.  From :func:`sample_frontier` the scores are the rows of one
    ``(3, n)`` array, and the cloud keeps its chunks' seeds instead of its
    weights: each read of ``weights`` draws them again, with the sampled
    bits, and :func:`write_frontier_csv` draws only each piece's rows.
    """

    def __init__(self, weights, ret, risk, sharpe):
        self._weights, self.ret, self.risk, self.sharpe = weights, ret, risk, sharpe

    @property
    def weights(self) -> np.ndarray:
        w = self._weights  # a sampled cloud's, drawn into a new array
        return np.array(w[:]) if isinstance(w, _Draws) else w

    def __len__(self) -> int:
        return len(self.ret)


class _Draws:
    """A sampled cloud's ``(n, d)`` weights as a column that ``[lo:hi]``
    draws, for reading only: each ``_FRONTIER_CHUNK`` rows come from their
    own seed, and the last chunk drawn is kept (rows in order draw each once)."""

    def __init__(self, seeds, n: int, d: int):
        self.seeds, self.shape, self.dtype = seeds, (n, d), np.dtype(float)
        self._last = (-1, None)

    def __getitem__(self, rows: slice) -> np.ndarray:
        lo, hi, _ = rows.indices(self.shape[0])
        c = _FRONTIER_CHUNK
        parts = [self._chunk(k)[max(lo - k * c, 0):hi - k * c] for k in range(lo // c, -(-hi // c))]
        return parts[0] if len(parts) == 1 else np.vstack([np.empty((0, self.shape[1])), *parts])

    def _chunk(self, k: int) -> np.ndarray:
        """Chunk ``k``: i.i.d. exponential spacings from seed ``k`` divided by
        their row sums, the only code that makes frontier weights."""
        if self._last[0] != k:
            self._last = (-1, None)  # frees the chunk before, unless a caller holds it
            n, d = self.shape
            chunk = np.random.default_rng(self.seeds[k]).standard_exponential(
                (min(_FRONTIER_CHUNK, n - k * _FRONTIER_CHUNK), d))
            chunk /= chunk.sum(axis=1, keepdims=True)
            self._last = (k, chunk)
        return self._last[1]


def parse_prices(text: str) -> PriceSeries:
    """Parse a ``date,<name>,...`` CSV into a :class:`PriceSeries`.

    Rows may arrive in any order; they are sorted by date.  Duplicate
    dates, non-positive or unparsable prices, and ragged rows raise
    :class:`IngestionError` naming the 1-based data row (the header is
    row 0).
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise IngestionError("empty input")
    header = [tok.strip() for tok in lines[0].split(",")]
    if len(header) < 2 or header[0] != "date":
        raise IngestionError("header must be 'date,<name>,...'")
    names = _check_names(header[1:])
    d = len(names)

    rows: list[tuple[_dt.date, str, list[float]]] = []
    seen_dates: dict[str, int] = {}
    for rownum, raw in enumerate(lines[1:], start=1):
        fields = [tok.strip() for tok in raw.split(",")]
        if len(fields) != d + 1:
            raise IngestionError(
                f"row {rownum}: expected {d + 1} fields, got {len(fields)}", row=rownum
            )
        try:
            day = _parse_date(fields[0])
        except ValueError as exc:
            raise IngestionError(f"row {rownum}: bad date {fields[0]!r}", row=rownum) from exc
        if fields[0] in seen_dates:
            raise IngestionError(
                f"row {rownum}: duplicate date {fields[0]} (first seen on row "
                f"{seen_dates[fields[0]]})",
                row=rownum,
            )
        seen_dates[fields[0]] = rownum
        prices = []
        for name, tok in zip(names, fields[1:]):
            try:
                value = float(tok)
            except ValueError as exc:
                raise IngestionError(
                    f"row {rownum}: unparsable price {tok!r} for {name}", row=rownum
                ) from exc
            if not math.isfinite(value) or value <= 0:
                raise IngestionError(
                    f"row {rownum}: non-positive price {tok!r} for {name}", row=rownum
                )
            prices.append(value)
        rows.append((day, fields[0], prices))

    if len(rows) < 2:
        raise IngestionError("need at least two data rows")
    rows.sort(key=lambda item: item[0])
    dates = tuple(item[1] for item in rows)
    matrix = np.array([item[2] for item in rows], dtype=float)
    return PriceSeries(dates, matrix, names)


def format_prices(series: PriceSeries) -> str:
    """Serialize with full round-trip precision; inverse of parse_prices."""
    header = "date," + ",".join(series.asset_names) + "\n"
    rows = _table_rows([np.asarray(series.dates), series.prices], 0, series.n_periods)
    return header + rows.decode()


def log_returns(series: PriceSeries) -> ReturnsSeries:
    """Per-period log returns ``ln(p_t / p_{t-1})``, shape (T-1, d)."""
    with np.errstate(over="ignore", divide="ignore"):  # ReturnsSeries reports a non-finite one
        rets = np.log(series.prices[1:] / series.prices[:-1])
    return ReturnsSeries(rets, series.asset_names)


def estimate_stats(returns: ReturnsSeries, rf: float = 0.0) -> MarketStats:
    """Sample mean and unbiased sample covariance of the return rows.

    With R return rows the covariance divisor is R - 1.  The matrix is
    symmetrized by averaging with its transpose so downstream symmetry
    checks hold exactly.  Fewer than two rows is an error; fewer rows than
    ``d + 1`` still works but warns that the covariance is rank-deficient.
    """
    arr = returns.returns
    n_rows, d = arr.shape
    if n_rows < 2:
        raise EstimationError(f"need at least 2 return rows, got {n_rows}")
    if n_rows < d + 1:
        warnings.warn(
            f"only {n_rows} return rows for {d} assets: sample covariance is "
            "rank-deficient",
            stacklevel=2,
        )
    mu = arr.mean(axis=0)
    centered = arr - mu
    sigma = centered.T @ centered / (n_rows - 1)
    sigma = (sigma + sigma.T) / 2.0
    return MarketStats(mu, sigma, rf, returns.asset_names)


def _psd_factor(sigma: np.ndarray) -> np.ndarray:
    """Return F with F @ F.T == sigma, accepting singular PSD inputs."""
    eigvals, eigvecs = np.linalg.eigh(sigma)
    if float(eigvals.min()) < -1e-10 * max(1.0, float(abs(eigvals).max())):
        raise ConfigurationError("covariance factorization failed: not PSD")
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def synthetic_market(seed: int, d: int, n_periods: int, mu_true, sigma_true) -> PriceSeries:
    """Geometric random-walk prices with Gaussian log increments.

    Assets ``A1`` .. ``Ad`` all start at 100 on 2019-01-01 and evolve by
    daily i.i.d. increments with mean ``mu_true`` and covariance
    ``sigma_true`` (PSD; singular is fine).  Deterministic for a given seed.
    """
    if not _is_int(d) or d < 1:
        raise ConfigurationError("d must be a positive integer")
    if not _is_int(n_periods) or n_periods < 2:
        raise ConfigurationError("n_periods must be an integer >= 2")
    mu = np.asarray(mu_true, dtype=float)
    sigma = np.asarray(sigma_true, dtype=float)
    if mu.shape != (d,):
        raise ConfigurationError(f"mu_true must be a {d}-vector")
    if sigma.shape != (d, d):
        raise ConfigurationError(f"sigma_true must be ({d}, {d})")
    if np.max(np.abs(sigma - sigma.T), initial=0.0) > 1e-12:
        raise ConfigurationError("sigma_true must be symmetric")
    factor = _psd_factor(sigma)
    rng = np.random.default_rng(seed)
    shocks = rng.standard_normal((n_periods - 1, d))
    increments = mu + shocks @ factor.T
    log_levels = np.cumsum(increments, axis=0)
    prices = np.vstack([np.full(d, 100.0), 100.0 * np.exp(log_levels)])
    day0 = _dt.date(2019, 1, 1)
    dates = tuple((day0 + _dt.timedelta(days=i)).isoformat() for i in range(n_periods))
    return PriceSeries(dates, prices, tuple(f"A{i+1}" for i in range(d)))


def demo_market(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic demo moments: distinct vol/return profiles with a
    mildly banded correlation structure (rho^|i-j|, rho = 0.3)."""
    if not _is_int(d) or d < 1:
        raise ConfigurationError("d must be a positive integer")
    if int(d) ** 2 > _MAX_DEMO_CELLS:
        raise ConfigurationError(
            f"a demo market of d={d} assets needs {d}x{d} matrices, more than "
            f"{_MAX_DEMO_CELLS} cells (128 MiB) each"
        )
    vols = np.linspace(0.010, 0.030, d)
    idx = np.arange(d)
    corr = 0.3 ** np.abs(idx[:, None] - idx[None, :])
    sigma = corr * np.outer(vols, vols)
    mu = np.linspace(2e-4, 1.2e-3, d)
    return mu, sigma


def sample_frontier(stats: MarketStats, n_samples: int, seed: int) -> FrontierCloud:
    """Score ``n_samples`` uniformly distributed simplex portfolios.

    Uniformity comes from normalized i.i.d. exponential spacings.  The
    scores are allocated first, so a cloud too large to hold fails before
    any seed is spawned.  Each ``_FRONTIER_CHUNK`` rows, in order, are
    drawn from their own spawned seed and divided by their row sums.  The
    rows are scored in blocks that follow the chunks, with a shorter tail
    joined to the block before it: every block but a lone one has at least
    ``_FRONTIER_CHUNK`` rows, and a cloud under twice that is one block.
    A block's chunks, at most two, are the only weights held at once.
    """
    if not _is_int(n_samples) or n_samples < 0:
        raise ConfigurationError("n_samples must be a nonnegative integer")
    scores = np.empty((3, n_samples))
    seeds = np.random.SeedSequence(seed).spawn(-(-n_samples // _FRONTIER_CHUNK))
    weights = _Draws(seeds, n_samples, stats.dim)
    # A shorter block can take another BLAS kernel and other bits than the
    # whole-cloud product; blocks of a chunk or more have given the same.
    block_starts = range(0, max(n_samples - _FRONTIER_CHUNK, 0) + 1, _FRONTIER_CHUNK)
    for lo, hi in zip(block_starts, [*block_starts[1:], n_samples]):
        scores[:, lo:hi] = _sharpe_rows(stats, weights[lo:hi])
    return FrontierCloud(weights, *scores)


def cml(rf: float, tangency: tuple[float, float]) -> tuple[float, float]:
    """Capital market line through ``(0, rf)`` and the tangency portfolio.

    ``tangency`` is ``(risk, ret)``; returns ``(intercept, slope)`` where
    the slope is the tangency portfolio's sharpe ratio.
    """
    risk, ret = float(tangency[0]), float(tangency[1])
    if not math.isfinite(rf):
        raise ConfigurationError("rf must be finite")
    if not (risk > 0) or not math.isfinite(risk):
        raise DegeneratePortfolioError("tangency risk must be positive")
    return float(rf), (ret - float(rf)) / risk


def write_frontier_csv(cloud: FrontierCloud, path) -> None:
    """``risk,ret,sharpe,w1,...,wd`` rows at full precision.

    The columns are stacked and formatted one piece of rows at a time, on
    up to one process per usable CPU, so neither the whole block nor its
    text is held at once; the bytes do not depend on the CPU count.  Each
    process draws a sampled cloud's chunks, once each, as its pieces need.
    """
    header = "risk,ret,sharpe," + ",".join(f"w{i+1}" for i in range(cloud._weights.shape[1]))
    _write_csv(path, header, [cloud.risk, cloud.ret, cloud.sharpe, cloud._weights])


def format_stats(stats: MarketStats) -> str:
    """Structured text block: dimension, rf, names, mu, row-major sigma."""
    return format_metadata({
        "d": stats.dim, "rf": stats.rf, "names": " ".join(stats.asset_names),
        "mu": stats.mu, "sigma": stats.sigma.reshape(-1),
    })


def parse_stats(text: str) -> MarketStats:
    """Inverse of :func:`format_stats`."""
    try:
        fields = parse_metadata(text)
    except ConfigurationError as exc:
        raise ConfigurationError(f"malformed stats {exc}") from None
    unknown = sorted(set(fields) - {"d", "rf", "names", "mu", "sigma"})
    if unknown:
        raise ConfigurationError(f"unknown stats key(s): {', '.join(unknown)}")
    try:
        d = int(fields["d"])
        rf = float(fields["rf"])
        names = fields["names"].split()
        mu = np.array(parse_vector(fields["mu"]), dtype=float)
        sigma = np.array(parse_vector(fields["sigma"]), dtype=float).reshape(d, d)
    except KeyError as exc:
        raise ConfigurationError(f"stats text missing field {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(f"malformed stats text: {exc}") from exc
    if len(mu) != d:  # MarketStats would take len(mu) as d and blame sigma
        raise ConfigurationError(f"stats mu has {len(mu)} values, but d={d}")
    # Checked here: MarketStats would invent names for an empty list.
    return MarketStats(mu, sigma, rf, _check_names(names))
