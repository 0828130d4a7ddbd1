import itertools
import math

import numpy as np
import pytest

from cbopt import (
    Objective,
    grid_search_simplex,
    neg_sharpe,
    rastrigin,
    simplex_lattice,
    sphere,
)
from cbopt.errors import ConfigurationError, NumericDomainError
from cbopt.metaio import format_metadata


def test_lattice_small_case_in_lexicographic_order():
    pts = simplex_lattice(2, 0.5)
    np.testing.assert_array_equal(pts, [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])


def test_lattice_counts_match_the_stars_and_bars_formula():
    # C(k + d - 1, d - 1) points for resolution k
    assert len(simplex_lattice(1, 0.1)) == 1
    assert len(simplex_lattice(2, 0.1)) == 11
    assert len(simplex_lattice(3, 0.25)) == 15
    assert len(simplex_lattice(4, 0.2)) == 56


def test_a_lattice_above_the_cap_is_rejected_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the lattice was allocated")

    monkeypatch.setattr(np, "empty", refuse)
    # C(1003, 3) = 167,668,501 rows of 4 coordinates: 5.4 GB
    with pytest.raises(ConfigurationError, match="d=4 has 167668501 points"):
        simplex_lattice(4, 0.001)


def test_lattice_rows_are_simplex_points_and_sorted():
    pts = simplex_lattice(3, 0.2)
    assert np.all(pts >= 0)
    np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)
    as_tuples = [tuple(row) for row in pts]
    assert as_tuples == sorted(as_tuples)


@pytest.mark.parametrize(
    "d,k", [(1, 1), (1, 5), (2, 1), (2, 7), (3, 1), (3, 10), (4, 1), (4, 6), (5, 4)]
)
def test_lattice_matches_an_itertools_enumeration_row_for_row(d, k):
    # itertools.product walks tuples in lexicographic order, so filtering it
    # gives the expected rows in the order the grid search's tie-break needs
    expected = [c for c in itertools.product(range(k + 1), repeat=d) if sum(c) == k]
    pts = simplex_lattice(d, 1.0 / k)
    rows = [tuple(int(x) for x in r) for r in np.rint(pts * k)]
    assert set(rows) == set(expected)
    assert rows == expected
    np.testing.assert_array_equal(pts, np.array(expected, dtype=float) / k)


def test_lattice_validation():
    with pytest.raises(ConfigurationError):
        simplex_lattice(0, 0.5)
    with pytest.raises(ConfigurationError):
        simplex_lattice(2, 0.0)
    with pytest.raises(ConfigurationError):
        simplex_lattice(2, 0.3)  # 1/0.3 is not an integer


def test_grid_search_finds_a_vertex_center():
    best = grid_search_simplex(sphere(np.array([2.0, 0.0])), 2, step=0.25)
    np.testing.assert_array_equal(best.weights, [1.0, 0.0])
    assert best.value == pytest.approx(1.0, abs=1e-12)
    assert best.method == "grid"
    assert best.meta["points"] == 5


def test_grid_search_breaks_ties_lexicographically():
    # constant objective: every lattice point ties; first lexicographic wins
    flat = Objective(lambda rows: np.ones(len(rows)), "flat")
    best = grid_search_simplex(flat, 3, step=0.5)
    np.testing.assert_array_equal(best.weights, [0.0, 0.0, 1.0])


def test_a_value_that_is_not_finite_is_never_the_minimum():
    # Scaled by 1e-320, every lattice point but the anchor overflows to a
    # NaN; np.argmin alone would stop at the first one, [0, 1].
    with np.errstate(all="ignore"):
        best = grid_search_simplex(rastrigin(np.array([0.5, 0.5]), 1e-320), 2, 0.01)
    np.testing.assert_array_equal(best.weights, [0.5, 0.5])
    assert best.value == 0.0
    left_nan = Objective(
        lambda rows: np.where(rows[:, 0] < 0.2, math.nan, (rows * rows).sum(axis=1)), "left-nan"
    )
    best = grid_search_simplex(left_nan, 2, 0.01)
    np.testing.assert_array_equal(best.weights, [0.5, 0.5])
    assert best.value == 0.5
    # -inf is skipped too, and the first finite tie still wins.
    flat = Objective(lambda rows: np.where(rows[:, 0] < 0.5, -math.inf, 1.0), "flat-right")
    best = grid_search_simplex(flat, 2, 0.25)
    np.testing.assert_array_equal(best.weights, [0.5, 0.5])
    assert best.value == 1.0


def test_a_lattice_with_no_finite_value_is_a_domain_error():
    with pytest.raises(NumericDomainError, match="step-0.25 lattice has a finite value"):
        grid_search_simplex(Objective(lambda rows: np.full(len(rows), math.nan), "nan"), 3, 0.25)


def test_grid_search_dimension_guard():
    with pytest.raises(ConfigurationError):
        grid_search_simplex(sphere(np.zeros(5)), 5, step=0.5)


def test_grid_agrees_with_the_closed_form_tangency_on_the_market(market3):
    # market3's tangency portfolio lies strictly inside the simplex, so the
    # normalized Sigma^-1 (mu - rf) is the exact simplex optimum.
    obj = neg_sharpe(market3)
    excess = np.linalg.solve(market3.sigma, market3.mu - market3.rf)
    w_star = excess / excess.sum()
    assert np.all(w_star > 0)
    grid = grid_search_simplex(obj, 3, step=0.001)
    assert np.max(np.abs(grid.weights - w_star)) <= 0.001
    assert obj(w_star) <= grid.value


def test_reference_metadata_is_flat_text():
    ref = grid_search_simplex(sphere(np.zeros(2)), 2, step=0.5)
    meta = ref.to_metadata()
    assert meta["reference_method"] == "grid"
    assert set(meta) == {
        "reference_method",
        "reference_value",
        "reference_weights",
        "reference_step",
        "reference_points",
    }
    # The lines the metadata file has always held for this reference.
    assert format_metadata(meta) == (
        "reference_method=grid\nreference_value=0.5\nreference_weights=0.5 0.5\n"
        "reference_step=0.5\nreference_points=3\n"
    )


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("step", [1.0, 0.5, 0.2, 0.125])
def test_lattice_bytes_match_an_itertools_enumeration(d, step):
    # product() yields tuples in lexicographic order; keep the compositions of k.
    k = round(1 / step)
    rows = [c for c in itertools.product(range(k + 1), repeat=d) if sum(c) == k]
    expected = np.array(rows, dtype=np.int64).reshape(-1, d).astype(float) / k
    got = simplex_lattice(d, step)
    assert got.shape == expected.shape and got.flags.c_contiguous
    assert got.tobytes() == expected.tobytes()
