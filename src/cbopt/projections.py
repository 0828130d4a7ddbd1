"""Euclidean projections onto closed convex feasible sets.

Three set families cover the experiments in this package: the probability
simplex, axis-aligned boxes (bounds may be infinite), and Euclidean balls.
Each projector maps arbitrary points to the nearest feasible point in the
L2 sense, tests membership up to a tolerance, and serializes to a compact
textual form used in run metadata (``simplex:d``, ``box:lo,hi``,
``ball:center,radius``).

Projection is the corrector step's workhorse, so the row-wise variants are
vectorized.  ``project`` delegates to ``project_rows`` so single-vector and
batch calls stay bit-identical.
"""

from __future__ import annotations

import numpy as np

from . import metaio
from .errors import ConfigurationError, NumericDomainError
from .metaio import (
    _all_finite, _blocks, _each_block, _is_int, _row_ranges, _row_sq, fmt_float, fmt_vector,
    parse_vector,
)

__all__ = [
    "DEFAULT_MEMBERSHIP_TOL",
    "Projector",
    "SimplexProjector",
    "BoxProjector",
    "BallProjector",
    "simplex",
    "box",
    "ball",
    "parse_projector",
]

DEFAULT_MEMBERSHIP_TOL = 1e-10


def _as_rows(vs, dim: int) -> np.ndarray:
    arr = np.asarray(vs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ConfigurationError(
            f"expected an (m, {dim}) array of row vectors, got shape {arr.shape}"
        )
    if not _all_finite(arr):
        raise NumericDomainError("projection input contains non-finite entries")
    return arr


class Projector:
    """Exact Euclidean projection onto a nonempty closed convex set."""

    dim: int

    def project_rows(self, vs) -> np.ndarray:
        """Project each row of an ``(m, dim)`` array onto the set."""
        raise NotImplementedError

    def contains_rows(self, vs, tol: float = DEFAULT_MEMBERSHIP_TOL) -> np.ndarray:
        """Boolean membership per row, up to an additive tolerance."""
        raise NotImplementedError

    def project(self, v) -> np.ndarray:
        arr = np.asarray(v, dtype=float)
        if arr.ndim != 1:
            raise ConfigurationError(f"expected a vector, got shape {arr.shape}")
        return self.project_rows(arr[None, :])[0]

    def contains(self, v, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
        arr = np.asarray(v, dtype=float)
        if arr.ndim != 1:
            raise ConfigurationError(f"expected a vector, got shape {arr.shape}")
        return bool(self.contains_rows(arr[None, :], tol)[0])

    def describe(self) -> str:
        """Compact textual form, parseable by :func:`parse_projector`."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}<{self.describe()}>"


class SimplexProjector(Projector):
    """Probability simplex ``{w : sum(w) = 1, w >= 0}``.

    Projection uses the descending-sort threshold rule (Held, Wolfe &
    Crowder 1974): with ``u`` the coordinates sorted descending, ``t_k =
    (sum_{j<=k} u_j - 1)/k`` and ``k`` the largest index with ``u_k > t_k``,
    the projection is ``max(v - t_k, 0)``.  Cost is O(d log d) per row.  The
    output is invariant under coordinate permutation because only sorted
    values enter the threshold.

    Rows are projected in serial blocks of about ``_BLOCK_CELLS // 4``
    cells, so the sort and cumsum scratch stays in cache; each row is one
    sort and one sequential cumsum, so the bits do not depend on the block.
    The rule's rounding error grows with the row's largest entry ``u_1``: a
    row's sum stays within about ``d**2 * eps * |u_1|`` of 1.  From
    ``|u_1| >= 2**53`` on, ``u_1 - 1`` is no longer exact and ``t_1`` can
    round to ``u_1`` (or to ``u_1 - 2``), and huge entries can overflow the
    partial sums.  Those rows, and any row whose threshold is not finite,
    are projected again after subtracting their maximum, which leaves the
    projection unchanged; ``k`` is then the last column before the first
    with ``u_k <= t_k``, and their sum is within about ``d**2 * eps`` of 1.

    Rows shorter than ``metaio._SHORT_ROW`` (8 values, one cache line) are
    dominated by numpy's per-row loops, not by arithmetic: at (1600, 4) the
    sort, cumsum and reversed ``argmax`` take about 160 of the block's
    210-240 us.  A block of at least ``16 * d**2`` such rows is projected
    column by column instead (:meth:`_column_thresholds`), with the same
    bits: a cumsum is sequential either way, and a sort is the same
    multiset in the same order.  Below that count, the column path's calls,
    about d**2 of them, cost more than the loops they replace (the crossover
    measured for d = 3..7); rows of 8 or more values keep the row path,
    since at (10000, 20) strided column passes were slower.
    """

    def __init__(self, dim: int):
        if not _is_int(dim) or dim < 1:
            raise ConfigurationError("simplex dimension must be a positive integer")
        self.dim = int(dim)
        self._ks = np.ones((0, self.dim))  # rows of k = 1..d, grown to the largest block
        self._k_col = np.arange(1.0, self.dim + 1)[:, None]  # k = 1..d as a column
        # Blocks of at least this many rows take _column_thresholds; None: none do.
        self._column_rows = 16 * self.dim**2 if self.dim < metaio._SHORT_ROW else None

    def _thresholds(self, v):
        """Rows sorted descending as ``-sort(-v)`` (a tie may swap only +-0, which
        no bit of ``t`` sees), ``t = (cumsum - 1)/k`` by a tile of k, and ``u > t``."""
        ks = self._ks
        if len(ks) < len(v):
            ks = self._ks = np.tile(np.arange(1, self.dim + 1, dtype=float), (len(v), 1))
        u = np.negative(v)
        u.sort(axis=1)
        np.negative(u, out=u)
        t = np.cumsum(u, axis=1)
        t -= 1.0
        t /= ks[: len(v)]
        return u, t, u > t

    def _column_thresholds(self, v, out):
        """:meth:`_thresholds` of rows shorter than ``_SHORT_ROW`` as column
        operations on their ``(d, m)`` transpose, with no per-row loop: an
        insertion network of compare-exchanges (``maximum``/``minimum``) sorts the
        columns descending, the same multiset in the same order, and each
        partial sum, threshold and ``u > t`` is one call over all rows.  Writes
        ``max(v - theta, 0)`` to ``out`` and returns ``theta`` and ``u_1``."""
        d = self.dim
        vt = np.array(v.T)
        cols, spare = list(vt.copy()), np.empty(len(v))
        for i in range(1, d):
            for j in range(i, 0, -1):
                hi, lo = cols[j - 1], cols[j]
                np.maximum(hi, lo, out=spare)
                np.minimum(hi, lo, out=lo)
                cols[j - 1], spare = spare, hi
        t = np.empty(vt.shape)
        t[0] = cols[0]
        for k in range(1, d):
            np.add(t[k - 1], cols[k], out=t[k])
        t -= 1.0
        t /= self._k_col
        # t at the last valid column; column 0 fails only in rows that are redone.
        theta = t[0]
        for k in range(1, d):
            theta = np.where(cols[k] > t[k], t[k], theta)
        vt -= theta
        np.maximum(vt, 0.0, out=vt)
        out[...] = vt.T
        return theta, cols[0]

    def _project_block(self, v, out):
        if self._column_rows is not None and len(v) >= self._column_rows:
            theta, top = self._column_thresholds(v, out)
        else:
            u, t, valid = self._thresholds(v)
            # t at the last valid column: its bits are (css - 1)/(k + 1).
            theta = t.reshape(-1)[np.arange(self.dim - 1, t.size, self.dim)
                                  - valid[:, ::-1].argmax(1)]
            np.subtract(v, theta[:, None], out=out)
            np.maximum(out, 0.0, out=out)
            top = u[:, 0]
        # Below 2**53, u_1 - 1 is exact, so column 0 is valid with a margin
        # of 1; from there on it may fail, or pass with a margin of 2.  Those
        # rows, and rows whose partial sums overflowed, are redone.
        redo = np.abs(top) >= 2.0**53
        redo |= np.isinf(theta)
        if not np.count_nonzero(redo):
            return
        idx = np.flatnonzero(redo)
        w = v[idx]
        w -= w.max(axis=1, keepdims=True)
        u, t, valid = self._thresholds(w)
        k = np.logical_and.accumulate(valid, axis=1).sum(axis=1) - 1
        out[idx] = np.maximum(w - t[np.arange(len(idx)), k][:, None], 0.0)

    def project_rows(self, vs) -> np.ndarray:
        vs = _as_rows(vs, self.dim)
        out = np.empty(vs.shape)
        cells = metaio._BLOCK_CELLS // 4
        # Huge rows may overflow their partial sums or v - max(v); they are
        # the rows _project_block redoes.
        with np.errstate(over="ignore"):
            for lo, hi in _row_ranges(len(vs), self.dim, cells):
                self._project_block(vs[lo:hi], out[lo:hi])
        return out

    def contains_rows(self, vs, tol: float = DEFAULT_MEMBERSHIP_TOL) -> np.ndarray:
        vs = _as_rows(vs, self.dim)
        return (np.abs(vs.sum(axis=1) - 1.0) <= tol) & (vs.min(axis=1) >= -tol)

    def describe(self) -> str:
        return f"simplex:{self.dim}"


class BoxProjector(Projector):
    """Axis-aligned box ``{v : lo <= v <= hi}``; bounds may be +-inf."""

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape or not lo.size:
            raise ConfigurationError("box bounds must be two nonempty vectors of equal length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ConfigurationError("box bounds must not be NaN")
        if not np.all(lo <= hi):
            raise ConfigurationError("box requires lo <= hi componentwise")
        self.lo = lo
        self.hi = hi
        self.dim = lo.shape[0]
        self._unbounded = bool(np.all(lo == -np.inf) and np.all(hi == np.inf))

    def project_rows(self, vs) -> np.ndarray:
        vs = _as_rows(vs, self.dim)
        # The clip onto R^d gives the bits of a copy, -0.0 included.
        return vs.copy() if self._unbounded else np.clip(vs, self.lo, self.hi)

    def contains_rows(self, vs, tol: float = DEFAULT_MEMBERSHIP_TOL) -> np.ndarray:
        vs = _as_rows(vs, self.dim)
        return np.all(vs >= self.lo - tol, axis=1) & np.all(vs <= self.hi + tol, axis=1)

    def describe(self) -> str:
        return f"box:{fmt_vector(self.lo)},{fmt_vector(self.hi)}"


class BallProjector(Projector):
    """Euclidean ball of given center and radius; projection is radial.

    Rows are projected in blocks, on every usable CPU, by in-place ufuncs,
    with the bits of the whole-array expression ``center + dev * scale``
    for ``dev = v - center``.
    """

    def __init__(self, center, radius: float):
        center = np.asarray(center, dtype=float)
        if center.ndim != 1 or not center.size or not np.all(np.isfinite(center)):
            raise ConfigurationError("ball center must be a nonempty finite vector")
        radius = float(radius)
        if not (radius > 0) or not np.isfinite(radius):
            raise ConfigurationError("ball radius must be finite and positive")
        self.center = center
        self.radius = radius
        self.dim = center.shape[0]

    def project_rows(self, vs) -> np.ndarray:
        vs = _as_rows(vs, self.dim)
        out = np.empty(vs.shape)

        def body(lo, hi, scratch):
            dev = np.subtract(vs[lo:hi], self.center, out=out[lo:hi])
            sq = np.multiply(dev, dev, out=scratch[: hi - lo])
            dist = np.sqrt(sq.sum(axis=1))
            scale = np.ones_like(dist)
            np.divide(self.radius, dist, out=scale, where=dist > self.radius)
            np.multiply(dev, scale[:, None], out=dev)
            np.add(self.center, dev, out=dev)

        ranges, scratch = _blocks(vs.shape)
        _each_block(ranges, body, scratch)
        return out

    def contains_rows(self, vs, tol: float = DEFAULT_MEMBERSHIP_TOL) -> np.ndarray:
        return np.sqrt(_row_sq(_as_rows(vs, self.dim), self.center)) <= self.radius + tol

    def describe(self) -> str:
        return f"ball:{fmt_vector(self.center)},{fmt_float(self.radius)}"


def simplex(dim: int) -> SimplexProjector:
    return SimplexProjector(dim)


def box(lo, hi) -> BoxProjector:
    return BoxProjector(lo, hi)


def ball(center, radius: float) -> BallProjector:
    return BallProjector(center, radius)


def parse_projector(text: str) -> Projector:
    """Parse the textual form produced by ``Projector.describe``."""
    kind, sep, rest = text.strip().partition(":")
    if not sep:
        raise ConfigurationError(f"malformed projector spec {text!r}")
    try:
        if kind == "simplex":
            return SimplexProjector(int(rest))
        if kind == "box":
            lo_s, hi_s = rest.split(",")
            return BoxProjector(parse_vector(lo_s), parse_vector(hi_s))
        if kind == "ball":
            center_s, radius_s = rest.rsplit(",", 1)
            return BallProjector(parse_vector(center_s), float(radius_s))
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"malformed projector spec {text!r}: {exc}") from exc
    raise ConfigurationError(f"unknown projector kind {kind!r}")
