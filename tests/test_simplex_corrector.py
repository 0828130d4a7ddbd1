"""The row-blocked simplex corrector against the expression it replaced.

``SimplexProjector.project_rows`` sorts and thresholds its rows in serial
blocks of about ``metaio._BLOCK_CELLS // 4`` cells.  ``oracles.simplex``
is the whole-array expression it replaced, verbatim; every row the
rule keeps (``max(|u_1|, |theta|)`` below the projector's bound for the
column of ``theta``) must keep its bits on every block size.  The other
rows, which the old expression could project off the simplex, are redone
after subtracting the row maximum; those tests check membership at the
default tolerance and permutation invariance instead of bits.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from cbopt import metaio, simplex
from cbopt.cli import main
from cbopt.metaio import parse_metadata, parse_vector
from conftest import assert_same_bits, no_warnings

EPS = np.finfo(float).eps


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
    want = oracles.simplex(vs)
    assert_same_bits(simplex(shape[1]).project_rows(vs), want)
    assert_same_bits(vs, before)


@pytest.mark.parametrize("cells", [4, 20, 64, 1000])
def test_blocked_corrector_bits_do_not_depend_on_the_block_size(block_cells, cells):
    vs = rows(cells, (300, 7))
    block_cells(cells)
    assert_same_bits(simplex(7).project_rows(vs), oracles.simplex(vs))


def test_all_zero_and_all_tied_rows_match_the_reference():
    vs = np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [0.5, 0.5, 0.5],
                   [-2.0, -2.0, -2.0], [0.1, 0.1, 0.2], [1.0, 0.0, -0.0]])
    assert_same_bits(simplex(3).project_rows(vs), oracles.simplex(vs))


def test_empty_input_gives_an_empty_output():
    assert simplex(4).project_rows(np.zeros((0, 4))).shape == (0, 4)


def below_the_bound(d):
    """Entries whose rows the rule keeps: with every |entry| below T(d) - 1,
    ``|theta|`` (within 1 of ``u_1``) stays below the bound of every column."""
    top = float(simplex(d)._exact_below.min()) - 1.0
    return st.floats(-top, top, allow_nan=False, allow_infinity=False)


# Each example sets the block size itself.
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 12).flatmap(
           lambda d: arrays(np.float64, st.tuples(st.integers(1, 40), st.just(d)),
                            elements=below_the_bound(d))),
       st.integers(1, 200))
def test_blocked_corrector_matches_the_reference_on_moderate_rows(block_cells, vs, cells):
    block_cells(cells)
    assert_same_bits(simplex(vs.shape[1]).project_rows(vs), oracles.simplex(vs))


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
    with no_warnings():
        got = simplex(3).project(np.array(v))
    np.testing.assert_allclose(got, want, rtol=0, atol=4 * EPS)
    assert simplex(3).contains(got)


def test_only_the_huge_rows_of_a_block_change():
    vs = rows(5, (50, 3))
    huge = np.array([[1e16, 0.0, 0.0], [-1e308, -1e308, 5.0]])
    mixed = np.concatenate([vs[:20], huge, vs[20:]])
    got = simplex(3).project_rows(mixed)
    assert_same_bits(np.delete(got, [20, 21], axis=0), oracles.simplex(vs))
    assert_same_bits(got[20:22], [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


huge = st.one_of(
    st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False),
    st.floats(-50, 50),
    st.sampled_from([2.0**53, 2.0**53 + 2.0, -2.0**53, 1e16, -1e16, 1.7976931348623157e308,
                     -1.7976931348623157e308, 0.0, -0.0]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 20).flatmap(lambda d: arrays(np.float64, (d,), elements=huge)),
       st.randoms(use_true_random=False))
def test_projection_of_any_finite_row_is_on_the_simplex_and_permutation_invariant(v, rnd):
    p = simplex(len(v))
    with no_warnings():
        got = p.project(v)
        perm = np.array(rnd.sample(range(len(v)), len(v)))
        via_perm = np.empty_like(got)
        via_perm[perm] = p.project(v[perm])
    assert np.all(np.isfinite(got))
    assert p.contains(got)
    assert_same_bits(via_perm, got)


def near_tie(d, c, seed):
    """``c`` in every column, moved by up to 4 ulps of ``c`` and by up to
    ``1/d``: exact ties, ties in all but the last bits, and ties within the
    support; at large ``|c|`` the absolute moves round away."""
    rng = np.random.default_rng(seed)
    ulps = rng.integers(-4, 5, d) * (rng.random() < 0.5)
    return c * (1.0 + ulps * EPS) + rng.uniform(0.0, 1.0 / d, d) * (rng.random() < 0.5)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([*range(1, 21), 100, 1000]), st.floats(1.0, 1e308),
       st.sampled_from([1.0, -1.0]), st.integers(0, 2**32 - 1))
def test_near_tied_rows_of_any_magnitude_land_on_the_simplex(d, size, sign, seed):
    p = simplex(d)
    v = near_tie(d, sign * size, seed)
    with no_warnings():
        got = p.project(v)
    assert np.all(np.isfinite(got))
    assert p.contains(got)


@pytest.mark.parametrize("v", [
    [1e6] * 3, [1e12] * 3, [1e15] * 3, [-1e15] * 3,
    # A d = 20 row at 2**15 that the rule alone put 1.6e-10 off the simplex.
    2.0**15 + np.random.default_rng(5).uniform(0.0, 1 / 20, 20),
    # Exact ties at d = 10**4, 3.6e-10 off with the rule alone.
    [0.3] * 10**4, near_tie(10**4, 1e9, 0),
], ids=["1e6x3", "1e12x3", "1e15x3", "-1e15x3", "d20-2^15", "d1e4-0.3", "d1e4-1e9"])
def test_named_near_ties_land_on_the_simplex(v):
    p = simplex(len(v))
    assert p.contains(p.project(np.array(v)))


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
