"""The row-blocked simplex corrector against the expression it replaced.

``SimplexProjector.project_rows`` sorts and thresholds its rows in serial
blocks of about ``metaio._BLOCK_CELLS // 4`` cells.  ``project_reference``
below is the whole-array expression it replaced, verbatim; every row the
rule handles exactly (largest entry below 2**53 in magnitude, finite
threshold) must keep its bits on every block size.  The other rows, which
the old expression projected off the simplex, are redone after
subtracting the row maximum; those tests check membership and
permutation invariance instead of bits.
"""

import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cbopt import metaio, simplex
from cbopt.cli import main
from cbopt.metaio import parse_metadata, parse_vector

EPS = np.finfo(float).eps


@contextlib.contextmanager
def block_cells(cells: int):
    saved = metaio._BLOCK_CELLS
    metaio._BLOCK_CELLS = cells
    try:
        yield
    finally:
        metaio._BLOCK_CELLS = saved


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(bits(got), bits(want))


def project_reference(vs):
    """The simplex projection before row blocking, verbatim."""
    vs = np.asarray(vs, dtype=float)
    dim = vs.shape[1]
    u = np.sort(vs, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    ks = np.arange(1, dim + 1, dtype=float)
    valid = u - (css - 1.0) / ks > 0.0
    k_idx = dim - 1 - np.argmax(valid[:, ::-1], axis=1)
    theta = (css[np.arange(len(vs)), k_idx] - 1.0) / (k_idx + 1.0)
    return np.maximum(vs - theta[:, None], 0.0)


def rows(seed, shape) -> np.ndarray:
    """Normal draws with a 1/d mean, mixed with +-0, exact ties within a
    row and values rounded to 0.1."""
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(shape) + 1.0 / shape[1]
    flat = out.reshape(-1)
    pick = rng.random(flat.shape)
    flat[pick < 0.05] = 0.0
    flat[(pick >= 0.05) & (pick < 0.1)] = -0.0
    tenths = (pick >= 0.1) & (pick < 0.3)
    flat[tenths] = np.round(flat[tenths], 1)
    if shape[1] > 1:
        # Ties: copy a random column over another in a fifth of the rows.
        tie = rng.random(shape[0]) < 0.2
        src, dst = rng.integers(0, shape[1], size=2)
        out[tie, dst] = out[tie, src]
    return out


MULTI_BLOCK = [(10000, 20), (100, 1000), (3, 5 * 10**4)]
ONE_BLOCK = [(1, 1), (8, 4), (100, 20)]


def test_the_shapes_are_multi_and_one_block():
    cells = metaio._BLOCK_CELLS // 4
    assert all(n * d > cells for n, d in MULTI_BLOCK)
    assert all(n * d <= cells for n, d in ONE_BLOCK)


@pytest.mark.parametrize("shape", MULTI_BLOCK + ONE_BLOCK)
@pytest.mark.parametrize("seed", [0, 1])
def test_blocked_corrector_matches_the_reference_bitwise(shape, seed):
    vs = rows((seed, *shape), shape)
    before = vs.copy()
    want = project_reference(vs)
    assert_same_bits(simplex(shape[1]).project_rows(vs), want)
    assert_same_bits(vs, before)


@pytest.mark.parametrize("cells", [4, 20, 64, 1000])
def test_blocked_corrector_bits_do_not_depend_on_the_block_size(cells):
    vs = rows(cells, (300, 7))
    with block_cells(cells):
        got = simplex(7).project_rows(vs)
    assert_same_bits(got, project_reference(vs))


def test_all_zero_and_all_tied_rows_match_the_reference():
    vs = np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [0.5, 0.5, 0.5],
                   [-2.0, -2.0, -2.0], [0.1, 0.1, 0.2], [1.0, 0.0, -0.0]])
    assert_same_bits(simplex(3).project_rows(vs), project_reference(vs))


def test_empty_input_gives_an_empty_output():
    assert simplex(4).project_rows(np.zeros((0, 4))).shape == (0, 4)


moderate = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(
           lambda d: arrays(np.float64, st.tuples(st.integers(1, 40), st.just(d)),
                            elements=moderate)),
       st.integers(1, 200))
def test_blocked_corrector_matches_the_reference_on_moderate_rows(vs, cells):
    # Below 1e12 the largest entry stays far from 2**53 and no partial sum
    # overflows, so no row is redone.
    with block_cells(cells):
        got = simplex(vs.shape[1]).project_rows(vs)
    assert_same_bits(got, project_reference(vs))


# --- rows the old expression projected off the simplex ---


@pytest.mark.parametrize("v, want", [
    ([1e16, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ([2.0**53 + 2.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ([-1e308, -1e308, 5.0], [0.0, 0.0, 1.0]),
    ([1e308, -1e308, 3.0], [1.0, 0.0, 0.0]),
    ([-1e16, -1e16, -1e16], [1 / 3, 1 / 3, 1 / 3]),
    ([1.7e308, 1.7e308, 1.7e308], [1 / 3, 1 / 3, 1 / 3]),
])
def test_huge_rows_land_on_the_simplex_without_a_warning(v, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = simplex(3).project(np.array(v))
    np.testing.assert_allclose(got, want, rtol=0, atol=4 * EPS)
    assert simplex(3).contains(got)


def test_only_the_huge_rows_of_a_block_change():
    vs = rows(5, (50, 3))
    huge = np.array([[1e16, 0.0, 0.0], [-1e308, -1e308, 5.0]])
    mixed = np.concatenate([vs[:20], huge, vs[20:]])
    got = simplex(3).project_rows(mixed)
    assert_same_bits(np.delete(got, [20, 21], axis=0), project_reference(vs))
    assert_same_bits(got[20:22], [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def sum_tol(v) -> float:
    """How far the rule lets a row's sum stray from 1: rounding grows with
    the largest entry u_1 below 2**53; redone rows are shifted to u_1 = 0."""
    d = len(v)
    top = abs(float(np.max(v)))
    scale = 1.0 if top >= 2.0**53 else top + 1.0
    return 1e-10 + 4.0 * d * d * EPS * scale


huge = st.one_of(
    st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False),
    st.floats(-50, 50),
    st.sampled_from([2.0**53, 2.0**53 + 2.0, -2.0**53, 1e16, -1e16, 1.7976931348623157e308,
                     -1.7976931348623157e308, 0.0, -0.0]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: arrays(np.float64, (d,), elements=huge)),
       st.randoms(use_true_random=False))
def test_projection_of_any_finite_row_is_on_the_simplex_and_permutation_invariant(v, rnd):
    p = simplex(len(v))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = p.project(v)
        perm = np.array(rnd.sample(range(len(v)), len(v)))
        via_perm = np.empty_like(got)
        via_perm[perm] = p.project(v[perm])
    assert np.all(np.isfinite(got))
    assert p.contains(got, tol=sum_tol(v))
    assert_same_bits(via_perm, got)


def test_solve_with_a_huge_init_std_returns_weights_on_the_simplex(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--assets", "20", "--rows", "200", "--seed", "7",
                 "--out", str(data)]) == 0
    assert main(["ingest", str(data / "prices.csv"), "--out", str(data)]) == 0
    out = tmp_path / "solve"
    assert main(["solve", "--stats", str(data / "stats.txt"), "--init-std", "1e17",
                 "--max-iters", "0", "--out", str(out)]) == 0
    result = parse_metadata((out / "result.txt").read_text())
    weights = np.array(parse_vector(result["weights"]))
    assert weights.shape == (20,)
    assert simplex(20).contains(weights)
