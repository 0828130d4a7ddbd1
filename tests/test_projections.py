import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cbopt import ball, box, simplex
from cbopt.errors import ConfigurationError, NumericDomainError
from cbopt.projections import parse_projector

finite_floats = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def vecs(d):
    return arrays(np.float64, (d,), elements=finite_floats)


def projector_and_vec():
    """Strategy producing (projector, point) pairs across all variants."""

    def build(d, which, data):
        if which == 0:
            return simplex(d)
        if which == 1:
            lo = np.sort(data.draw(vecs(d)))
            hi = lo + np.abs(data.draw(vecs(d))) + 0.5
            return box(lo, hi)
        center = data.draw(vecs(d))
        return ball(center, float(data.draw(st.floats(0.1, 10))))

    @st.composite
    def inner(draw):
        d = draw(st.integers(1, 8))
        proj = build(d, draw(st.integers(0, 2)), draw(st.data()))
        return proj, draw(vecs(d))

    return inner()


# --- brute-force oracle for the 1-simplex, used to freeze expected outputs ---

def _oracle_1simplex(v):
    t = np.linspace(0.0, 1.0, 10_001)
    cand = np.stack([t, 1.0 - t], axis=1)
    d2 = ((cand - v) ** 2).sum(axis=1)
    return cand[int(np.argmin(d2))]


def test_simplex_known_values():
    p = simplex(3)
    w = np.array([1 / 3, 1 / 3, 1 / 3])
    np.testing.assert_allclose(p.project(w), w, atol=1e-15)
    np.testing.assert_allclose(
        p.project(np.array([0.5, 0.5, 0.5])), w, atol=1e-15
    )
    # frozen from the brute-force oracle above: (1.2, -0.2) -> (1, 0)
    assert np.allclose(_oracle_1simplex(np.array([1.2, -0.2])), [1.0, 0.0])
    np.testing.assert_allclose(
        simplex(2).project(np.array([1.2, -0.2])), [1.0, 0.0], atol=1e-12
    )


def test_ball_radial_scaling():
    p = ball(np.zeros(2), 1.0)
    np.testing.assert_allclose(p.project(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-15)
    inside = np.array([0.1, -0.2])
    np.testing.assert_array_equal(p.project(inside), inside)


def test_box_clips():
    p = box(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
    np.testing.assert_array_equal(p.project(np.array([2.0, -3.0])), [1.0, -1.0])
    np.testing.assert_array_equal(p.project(np.array([0.5, 0.0])), [0.5, 0.0])


def test_box_infinite_bounds_is_identity():
    p = box(np.array([-np.inf, -np.inf]), np.array([np.inf, np.inf]))
    v = np.array([1e6, -42.5])
    np.testing.assert_array_equal(p.project(v), v)


@pytest.mark.parametrize("lo, hi", [
    (np.full(3, -np.inf), np.full(3, np.inf)),  # unbounded: a copy, not a clip
    (np.array([-np.inf, 0.0, -1.0]), np.full(3, np.inf)),  # half-infinite: clipped
])
def test_box_project_rows_has_the_bits_of_np_clip(lo, hi):
    rows = np.array([[-0.0, 0.0, -0.0], [3.5, -0.0, -2.0], [-1e300, 5e-324, 0.5]])
    got = box(lo, hi).project_rows(rows)
    assert got.tobytes() == np.clip(rows, lo, hi).tobytes()
    assert not np.shares_memory(got, rows)


@settings(max_examples=150)
@given(projector_and_vec())
def test_idempotence(pv):
    proj, v = pv
    once = proj.project(v)
    twice = proj.project(once)
    assert np.abs(twice - once).max() <= 1e-12


@settings(max_examples=150)
@given(projector_and_vec(), st.data())
def test_contraction(pv, data):
    proj, x = pv
    y = data.draw(vecs(proj.dim))
    lhs = np.linalg.norm(proj.project(x) - proj.project(y))
    assert lhs <= np.linalg.norm(x - y) + 1e-12


@settings(max_examples=150)
@given(projector_and_vec(), st.data())
def test_optimality_and_variational_inequality(pv, data):
    proj, v = pv
    w = proj.project(data.draw(vecs(proj.dim)))  # a feasible point
    pv_ = proj.project(v)
    assert np.linalg.norm(pv_ - v) <= np.linalg.norm(w - v) + 1e-12
    assert float((v - pv_) @ (w - pv_)) <= 1e-10


@settings(max_examples=100)
@given(vecs(5))
def test_simplex_permutation_invariance(v):
    p = simplex(5)
    perm = np.array([3, 0, 4, 1, 2])
    inv = np.argsort(perm)
    direct = p.project(v)
    via_perm = p.project(v[perm])[inv]
    assert np.abs(direct - via_perm).max() <= 1e-12


@settings(max_examples=100)
@given(vecs(4))
def test_projection_lands_in_set(v):
    for proj in (simplex(4), box(np.full(4, -1.0), np.full(4, 2.0)), ball(np.zeros(4), 2.0)):
        assert proj.contains(proj.project(v), tol=1e-10)


def test_membership_examples():
    p = simplex(3)
    assert p.contains(np.array([1.0, 0.0, 0.0]), tol=0.0)
    assert not p.contains(np.array([0.5, 0.5, 0.1]), tol=0.05)
    assert not p.contains(np.array([0.5, 0.6, -0.1]), tol=1e-12)


def test_single_and_batch_projection_agree_bitwise():
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(40, 6))
    for proj in (simplex(6), box(np.full(6, -0.5), np.full(6, 0.5)), ball(np.ones(6), 1.5)):
        batch = proj.project_rows(rows)
        singles = np.stack([proj.project(r) for r in rows])
        np.testing.assert_array_equal(batch, singles)


def test_simplex_matches_dense_grid_oracle_d2():
    rng = np.random.default_rng(123)
    p = simplex(2)
    for _ in range(200):
        v = rng.normal(scale=2.0, size=2)
        assert np.abs(p.project(v) - _oracle_1simplex(v)).max() <= 2e-3


def test_simplex_matches_dense_grid_oracle_d3():
    # dense lattice with step 1e-2 here; the acceptance suite runs 1e-3
    step = 1e-2
    k = round(1 / step)
    pts = []
    for i in range(k + 1):
        for j in range(k - i + 1):
            pts.append((i * step, j * step, 1.0 - i * step - j * step))
    grid = np.array(pts)
    p = simplex(3)
    rng = np.random.default_rng(321)
    for _ in range(100):
        v = rng.normal(scale=1.5, size=3)
        best = grid[int(np.argmin(((grid - v) ** 2).sum(axis=1)))]
        assert np.abs(p.project(v) - best).max() <= 2e-2


def test_invalid_inputs():
    p = simplex(3)
    with pytest.raises(NumericDomainError):
        p.project(np.array([1.0, np.nan, 0.0]))
    with pytest.raises(NumericDomainError):
        p.project(np.array([np.inf, 0.0, 0.0]))
    with pytest.raises(ConfigurationError):
        p.project(np.array([1.0, 2.0]))
    with pytest.raises(ConfigurationError):
        simplex(0)
    with pytest.raises(ConfigurationError):
        box(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ConfigurationError):
        ball(np.zeros(2), 0.0)
    with pytest.raises(ConfigurationError):
        box(np.array([np.nan]), np.array([1.0]))


@pytest.mark.parametrize("make", [lambda: box([], []), lambda: ball([], 1.0)])
def test_a_box_or_ball_of_dimension_zero_is_rejected(make):
    with pytest.raises(ConfigurationError, match="nonempty"):
        make()


def test_textual_descriptions_round_trip():
    for proj in (
        simplex(4),
        box(np.array([-1.0, 0.0]), np.array([2.0, 3.5])),
        ball(np.array([0.25, -0.5, 0.0]), 1.75),
    ):
        again = parse_projector(proj.describe())
        assert again.describe() == proj.describe()
        v = np.array([0.3] * proj.dim)
        np.testing.assert_array_equal(again.project(v), proj.project(v))


def test_parse_projector_rejects_garbage():
    for bad in ("simplex", "simplex:0", "pyramid:3", "ball:1 2", "box:1 2"):
        with pytest.raises(ConfigurationError):
            parse_projector(bad)
