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
    _all_finite, _each_block, _is_int, _row_ranges, _row_sq, fmt_float, fmt_vector,
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


def _out_rows(vs: np.ndarray, out) -> np.ndarray:
    """The array ``project_rows(vs, out)`` writes: a new one for ``out=None``,
    else ``out`` once it is a writeable C-contiguous float64 array of
    ``vs``'s shape that is ``vs`` itself (the same elements) or shares no
    memory with it."""
    if out is None:
        return np.empty(vs.shape)
    if not (isinstance(out, np.ndarray) and out.shape == vs.shape and out.dtype == np.float64
            and out.flags.c_contiguous and out.flags.writeable):
        raise ConfigurationError(
            f"out must be a writeable C-contiguous float64 array of shape {vs.shape}"
        )
    if (out is not vs and np.shares_memory(out, vs)
            and (out.ctypes.data, out.strides) != (vs.ctypes.data, vs.strides)):
        raise ConfigurationError("out overlaps the input rows without being them")
    return out


class Projector:
    """Exact Euclidean projection onto a nonempty closed convex set."""

    dim: int

    def project_rows(self, vs, out=None) -> np.ndarray:
        """Project each row of an ``(m, dim)`` array onto the set.

        As in numpy, the rows are written to ``out`` and it is returned:
        ``None`` allocates it, and ``out=vs`` projects in place.  ``out``
        must be a writeable C-contiguous float64 ``(m, dim)`` array that is
        ``vs`` or shares no memory with it.  A duck-typed projector may
        ignore ``out`` and return a new array, so a caller uses the array
        returned.

        ``decay_experiment`` calls this from several threads at once, each
        on its own rows: a projector writes only ``out`` and its own
        temporaries, and any state it keeps (a cache) must stay valid for
        a concurrent call.
        """
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
    The rule's partial sums round by up to about ``(k**2/4 + k) * eps *
    max(|u_1|, |theta|)`` with ``theta`` at column ``k``, which exact ties
    reach.  Where that could reach a quarter of the default membership
    tolerance (``max(|u_1|, |theta|) >= tol / (eps*k*(k + 4))``: 938 at
    k = 20; rows shorter than ``_SHORT_ROW`` take k = d, as the column path
    does not track k), as in every row whose partial sums overflow, the row
    is projected again after subtracting its maximum.  That leaves the
    projection unchanged; ``k`` is then the last column before the first
    with ``u_k <= t_k``, and the sum is within about ``d * eps`` of 1.

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
        # Rows of k = 1..d, grown to the largest block.  A call that grows it
        # binds a new tile and never writes one, so concurrent calls are safe.
        self._ks = np.ones((0, self.dim))
        self._k_col = np.arange(1.0, self.dim + 1)[:, None]  # k = 1..d as a column
        # Blocks of at least this many rows take _column_thresholds; None: none do.
        self._column_rows = 16 * self.dim**2 if self.dim < metaio._SHORT_ROW else None
        # max(|u_1|, |theta|) from which a row is redone, by d - k (see _project_block).
        k = np.full(self.dim, self.dim) if self._column_rows else np.arange(self.dim, 0, -1)
        self._exact_below = DEFAULT_MEMBERSHIP_TOL / (np.finfo(float).eps * k * (k + 4.0))

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
        partial sum, threshold and ``u > t`` is one call over all rows.  Takes
        the rows to redo (:meth:`_redo_rows`), then writes ``max(v - theta, 0)``
        to ``out``, which may be ``v``, and returns them."""
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
        redo = self._redo_rows(v, cols[0], theta, self._exact_below[0])
        vt -= theta
        np.maximum(vt, 0.0, out=vt)
        out[...] = vt.T
        return redo

    @staticmethod
    def _redo_rows(v, top, theta, bound):
        """Indices and values of the rows of ``v`` to project again: those with
        ``max(|u_1|, |theta|) >= bound``, for ``top`` = u_1.  theta < u_1 at a
        valid column, and a row with none has |u_1| >= 2**53.  fmax skips a
        NaN theta, which needs u_1 >= 1.8e308/d.  The values are taken before
        ``out``, which may be ``v``, is written."""
        idx = np.flatnonzero(np.fmax(top, -theta) >= bound)
        return idx, v[idx]

    def _project_block(self, v, out):
        if self._column_rows is not None and len(v) >= self._column_rows:
            idx, w = self._column_thresholds(v, out)
        else:
            u, t, valid = self._thresholds(v)
            last = valid[:, ::-1].argmax(1)
            # t at the last valid column: its bits are (css - 1)/(k + 1).
            theta = t.reshape(-1)[np.arange(self.dim - 1, t.size, self.dim) - last]
            idx, w = self._redo_rows(v, u[:, 0], theta, self._exact_below[last])
            np.subtract(v, theta[:, None], out=out)
            np.maximum(out, 0.0, out=out)
        if not len(idx):
            return
        w -= w.max(axis=1, keepdims=True)
        u, t, valid = self._thresholds(w)
        k = np.logical_and.accumulate(valid, axis=1).sum(axis=1) - 1
        out[idx] = np.maximum(w - t[np.arange(len(idx)), k][:, None], 0.0)

    def project_rows(self, vs, out=None) -> np.ndarray:
        vs = _as_rows(vs, self.dim)
        out = _out_rows(vs, out)
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

    def project_rows(self, vs, out=None) -> np.ndarray:
        vs = _as_rows(vs, self.dim)
        out = _out_rows(vs, out)
        if self._unbounded:  # the clip onto R^d gives the bits of a copy, -0.0 included
            np.copyto(out, vs)
            return out
        return np.clip(vs, self.lo, self.hi, out=out)

    def contains_rows(self, vs, tol: float = DEFAULT_MEMBERSHIP_TOL) -> np.ndarray:
        vs = _as_rows(vs, self.dim)
        return np.all(vs >= self.lo - tol, axis=1) & np.all(vs <= self.hi + tol, axis=1)

    def describe(self) -> str:
        return f"box:{fmt_vector(self.lo)},{fmt_vector(self.hi)}"


class BallProjector(Projector):
    """Euclidean ball of given center and radius; projection is radial.

    Rows are projected in blocks, on every usable CPU, by in-place ufuncs,
    with the bits of the whole-array expression ``center + dev * scale``
    for ``dev = v - center``.  A row whose sum of squares overflows or falls
    below the smallest normal float (its norm is then wrong), or whose
    ``scale`` does (its product is then wrong), is moved by its max-scaled
    norm instead (:func:`_onto_sphere`).  ``v - center`` itself overflows
    only on a center coordinate of 2**970 or more; such a row is found
    before ``out`` is written and moved along ``v / 2 - center / 2``.
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
        # Below 2**970, half an ulp of the largest float, |v - c| rounds to
        # a finite value for every finite v.
        self._far = np.flatnonzero(np.abs(center) >= 2.0**970)

    def project_rows(self, vs, out=None) -> np.ndarray:
        vs = _as_rows(vs, self.dim)
        out = _out_rows(vs, out)

        def body(lo, hi, scratch):
            if self._far.size:  # rows whose v - c overflows, halved while v is whole
                c = self.center[self._far]
                huge = np.flatnonzero(np.isinf(vs[lo:hi, self._far] - c).any(axis=1))
                halves = vs[lo + huge] / 2 - self.center / 2
            dev = np.subtract(vs[lo:hi], self.center, out=out[lo:hi])
            sq = np.multiply(dev, dev, out=scratch[: hi - lo]).sum(axis=1)
            dist = np.sqrt(sq)
            scale = np.ones_like(dist)
            np.divide(self.radius, dist, out=scale, where=dist > self.radius)
            odd = (sq < _TINY) | (sq == np.inf) | (scale < _TINY)
            if self._far.size:
                odd[huge] = False
                dev[huge] = _onto_sphere(halves, self.radius, outside=True)
                scale[huge] = 1.0
            odd = np.flatnonzero(odd)
            if odd.size:
                dev[odd] = _onto_sphere(dev[odd], self.radius)
                scale[odd] = 1.0
            np.multiply(dev, scale[:, None], out=dev)
            np.add(self.center, dev, out=dev)

        with np.errstate(over="ignore"):  # an overflowing sum of squares is redone
            _each_block(vs.shape, body)
        return out

    def contains_rows(self, vs, tol: float = DEFAULT_MEMBERSHIP_TOL) -> np.ndarray:
        with np.errstate(over="ignore"):  # an overflowing distance is inf: outside
            sq = _row_sq(_as_rows(vs, self.dim), self.center)
        return np.sqrt(sq) <= self.radius + tol

    def describe(self) -> str:
        return f"ball:{fmt_vector(self.center)},{fmt_float(self.radius)}"


_TINY = np.finfo(float).tiny


def _onto_sphere(dev: np.ndarray, radius: float, outside=None) -> np.ndarray:
    """Rows ``dev`` outside the ball of ``radius`` about 0 (every row, if
    ``outside`` is True) moved onto its sphere, and the others as they are,
    with no square that overflows or underflows: a row's norm is its largest
    magnitude ``big`` times ``norm``, the norm of ``dev / big`` (in [1,
    sqrt(d)]), and a moved row is ``(dev / big) * (radius / norm)``."""
    big = np.abs(dev).max(axis=1, keepdims=True)
    big[big == 0.0] = 1.0  # a zero row stays
    unit = dev / big
    norm = np.sqrt((unit * unit).sum(axis=1, keepdims=True))
    if outside is None:  # norm * big > radius, without the product's overflow
        outside = norm > radius / big
    return np.where(outside, unit * (radius / np.where(outside, norm, 1.0)), dev)


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
