"""Deterministic reference optimizers used to judge solver output.

One baseline: exhaustive search over a regular simplex lattice, exact up
to the lattice resolution and only practical for d <= 4.  It returns a
:class:`ReferenceSolution`, which the CLI echoes into run metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericDomainError
from .metaio import _all_finite, _is_int

__all__ = [
    "ReferenceSolution",
    "simplex_lattice",
    "grid_search_simplex",
]

_EVAL_CHUNK = 65536
MAX_GRID_DIM = 4
# Float64 cells a lattice may hold (128 MiB): the d=4, step-0.01 grid has
# 707,404 and d=3, step 0.001 has 1,504,503, while d=4, step 0.001 would
# need 5.4 GB before its index temporaries.
_MAX_LATTICE_CELLS = 1 << 24


@dataclass(frozen=True)
class ReferenceSolution:
    """A reference optimizer's output: weights, value, method, metadata."""

    weights: np.ndarray
    value: float
    method: str
    meta: dict = field(default_factory=dict)

    def to_metadata(self) -> dict:
        """The ``reference_*`` entries of run metadata, as raw values for
        :func:`~cbopt.metaio.format_metadata` to render."""
        out = {
            "reference_method": self.method,
            "reference_value": self.value,
            "reference_weights": self.weights,
        }
        out.update((f"reference_{key}", val) for key, val in self.meta.items())
        return out


def simplex_lattice(d: int, step: float) -> np.ndarray:
    """All simplex points with coordinates on a step-width lattice.

    ``1/step`` must be an integer to within 1e-9, and the lattice may hold
    at most 2**24 coordinates.  Rows are returned in lexicographically
    ascending order, which the grid search relies on for its tie-breaking
    rule.
    """
    if not _is_int(d) or d < 1:
        raise ConfigurationError("d must be a positive integer")
    if not (0 < float(step) <= 1):
        raise ConfigurationError("step must be in (0, 1]")
    k_float = 1.0 / float(step)
    k = round(k_float)
    if abs(k_float - k) > 1e-9:
        raise ConfigurationError(f"1/step = {k_float!r} is not an integer")
    # Integer compositions of k, one column at a time: each prefix with sum
    # s gets the next coordinate 0..k-s as a contiguous ascending block, so
    # rows stay lexicographic; the last column is what remains of k.  A
    # prefix with sum s and r columns still to fill heads C(k-s+r-1, r-1)
    # rows, so each column is its values repeated that many times.
    n_points = math.comb(k + d - 1, d - 1)
    if n_points * d > _MAX_LATTICE_CELLS:
        raise ConfigurationError(
            f"a step-{step!r} lattice at d={d} has {n_points} points, more than "
            f"{_MAX_LATTICE_CELLS} coordinates (128 MiB)"
        )
    out = np.empty((n_points, d))
    sums = np.zeros(1, dtype=np.int64)
    for col in range(d - 1):
        counts = k - sums + 1
        nxt = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        sums = np.repeat(sums, counts) + nxt
        left = d - col - 1
        if left > 1:  # with one column left every prefix heads one row
            rows = np.array([math.comb(t + left - 1, left - 1) for t in range(k + 1)])
            nxt = np.repeat(nxt, rows[k - sums])
        out[:, col] = nxt
    out[:, d - 1] = k - sums
    out /= k
    return out


def grid_search_simplex(objective, d: int, step: float) -> ReferenceSolution:
    """Exhaustively minimize over the simplex lattice.

    Enforces d <= 4 (the lattice grows combinatorially).  Ties are broken
    toward the lexicographically smallest weight vector, and a value that
    is not finite is never the minimum; a lattice with no finite value
    raises ``NumericDomainError``.  Points are evaluated in fixed chunks.
    """
    if not _is_int(d) or not (1 <= d <= MAX_GRID_DIM):
        raise ConfigurationError(f"grid search supports 1 <= d <= {MAX_GRID_DIM}")
    points = simplex_lattice(d, step)
    chunks = range(0, len(points), _EVAL_CHUNK)
    values = np.concatenate([objective.eval_many(points[i : i + _EVAL_CHUNK]) for i in chunks])
    if not _all_finite(values):  # argmin would stop at the first NaN
        finite = np.isfinite(values)
        if not finite.any():
            raise NumericDomainError(f"no point of the step-{step!r} lattice has a finite value")
        values = np.where(finite, values, np.inf)
    # argmin returns the first minimum; rows are in lexicographic order.
    idx = int(np.argmin(values))
    return ReferenceSolution(
        points[idx].copy(),
        float(values[idx]),
        "grid",
        meta={"step": float(step), "points": len(points)},
    )

