"""The BLAS quadratic form, the row-wise writers and the consensus weights'
minimum against the code they replaced, which is kept here (the consensus
in ``oracles``) as the reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cbopt.cli import _SVG_CHUNK, _svg_pieces
from cbopt.core import (
    Ensemble, RunTrace, TraceRecord, consensus_point, trace_csv_header, write_trace_csv,
)
from cbopt.errors import ConfigurationError, DegeneratePortfolioError
from cbopt.market import (
    _FRONTIER_CHUNK,
    FrontierCloud,
    PriceSeries,
    format_prices,
    write_frontier_csv,
)
from cbopt.metaio import _mean, fmt_float, fmt_vector
from cbopt.objectives import MarketStats, neg_sharpe, row_variances

MAX_D = 30
# Any summation order of w' Sigma w is within gamma_{d+1} * |w|'|Sigma||w| of
# the exact value, so two orders differ by at most twice that; the factor 4
# leaves room for the |.| scale itself being rounded.
RTOL = 4 * (MAX_D + 1) * np.finfo(np.float64).eps

SPECIAL = [-0.0, 0.0, 1e-5, 9.999e-5, 1e16, 5e-324, -5e-324, -1e-5, -9.999e-5, -1e16,
           0.1, -2.5, 1.0 / 3.0, 123456789.125, 1.7976931348623157e308, 2.2250738585072014e-308]
ROW_COUNTS = [0, 1, _FRONTIER_CHUNK, _FRONTIER_CHUNK + 1]


# ------------------------------------------------------------ references

def ref_variances(rows, sigma):
    return np.einsum("ij,jk,ik->i", rows, sigma, rows)


def old_fmt_vector(vec) -> str:
    return " ".join(fmt_float(c) for c in vec)


def old_format_prices(series) -> str:
    lines = ["date," + ",".join(series.asset_names)]
    for day, row in zip(series.dates, series.prices):
        lines.append(day + "," + ",".join(fmt_float(p) for p in row))
    return "\n".join(lines) + "\n"


def old_write_frontier_csv(cloud, path) -> None:
    d = cloud.weights.shape[1]
    header = "risk,ret,sharpe," + ",".join(f"w{i+1}" for i in range(d))
    lines = [header]
    for i in range(len(cloud)):
        fields = [fmt_float(cloud.risk[i]), fmt_float(cloud.ret[i]), fmt_float(cloud.sharpe[i])]
        fields += [fmt_float(w) for w in cloud.weights[i]]
        lines.append(",".join(fields))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def old_write_trace_csv(trace, path) -> None:
    dim = trace.records[0].consensus.shape[0]
    lines = [trace_csv_header(dim)]
    for r in trace.records:
        fields = [str(r.iteration), fmt_float(r.residual), fmt_float(r.dispersion)]
        fields.append(fmt_float(r.best_value))
        fields += [fmt_float(c) for c in r.consensus]
        fields += [fmt_float(c) for c in r.center_of_mass]
        fields += [fmt_float(r.a_n), fmt_float(r.b_n)]
        fields.append("" if r.err_ref is None else fmt_float(r.err_ref))
        lines.append(",".join(fields))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def old_svg_scales(cloud, intercept, tangency):
    """The SVG's per-point ``sx``/``sy`` pixel formulas, before formatting."""
    width, height, pad = 640.0, 440.0, 50.0
    risks = np.concatenate([cloud.risk, [float(tangency[0]), 0.0]])
    rets = np.concatenate([cloud.ret, [float(tangency[1]), intercept]])
    x_lo, x_hi = float(risks.min()), float(risks.max())
    y_lo, y_hi = float(rets.min()), float(rets.max())
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    x_lo -= 0.05 * x_span
    x_hi += 0.05 * x_span
    y_lo -= 0.05 * y_span
    y_hi += 0.05 * y_span

    def sx(x: float) -> float:
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    return sx, sy


def old_frontier_svg_circles(cloud, intercept, tangency) -> list[str]:
    sx, sy = old_svg_scales(cloud, intercept, tangency)
    return [
        f'<circle cx="{sx(float(cloud.risk[i])):.2f}" cy="{sy(float(cloud.ret[i])):.2f}" '
        'r="1.5" fill="#4477aa" fill-opacity="0.45"/>'
        for i in range(len(cloud))
    ]


def on_rounding_ties(scale, lo: float, hi: float) -> list[float]:
    """Values in ``[lo, hi]`` that ``scale`` maps exactly onto a pixel
    ``k + 0.125 + 0.25 j``: ties of ``:.2f``, so an ulp either way (a change
    in operation order) changes the formatted text."""
    p_lo, p_hi = scale(lo), scale(hi)
    slope = (p_hi - p_lo) / (hi - lo)
    found = []
    for target in np.arange(np.ceil(min(p_lo, p_hi)) + 0.125, max(p_lo, p_hi), 3.25):
        x = lo + (target - p_lo) / slope
        for _ in range(64):
            if scale(x) == target:
                found.append(x)
                break
            x = np.nextafter(x, np.inf if (scale(x) < target) == (slope > 0) else -np.inf)
    return found


def assert_same_text(new: str, old: str) -> None:
    """Equality that reports the first differing line, not a full diff."""
    if new != old:
        a, b = new.splitlines(), old.splitlines()
        i = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"line {i} differs: {a[i:i + 1]} != {b[i:i + 1]} ({len(a)} vs {len(b)} lines)")


# --------------------------------------------------------------- inputs

def finite_floats(rng, n: int) -> np.ndarray:
    """The special values, then finite doubles with uniformly random bits."""
    out = np.empty(n)
    k = min(n, len(SPECIAL))
    out[:k] = SPECIAL[:k]
    filled = k
    while filled < n:
        bits = rng.integers(0, 2**64, size=n, dtype=np.uint64, endpoint=False).view(np.float64)
        bits = bits[np.isfinite(bits)][: n - filled]
        out[filled:filled + bits.size] = bits
        filled += bits.size
    return out


def cloud_of(rng, n: int, d: int = 3) -> FrontierCloud:
    cells = finite_floats(rng, n * (d + 3)).reshape(d + 3, n) if n else np.empty((d + 3, 0))
    return FrontierCloud(cells[3:].T.copy(), cells[0], cells[1], cells[2])


# -------------------------------------------------------- quadratic form

@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, MAX_D),
    m=st.integers(0, 300),
    rank=st.integers(1, MAX_D),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_variances_match_the_three_operand_einsum(d, m, rank, seed):
    rng = np.random.default_rng(seed)
    factor = rng.standard_normal((d, min(rank, d))) * rng.uniform(1e-3, 10.0)
    sigma = factor @ factor.T
    rows = rng.standard_normal((m, d))
    got = row_variances(rows, sigma, 0.0)
    want = ref_variances(rows, sigma)
    scale = ref_variances(np.abs(rows), np.abs(sigma))
    assert got.shape == (m,)
    assert np.all(np.abs(got - want) <= RTOL * scale)


def test_row_variances_check_the_floor_but_not_on_an_empty_block():
    sigma = np.eye(3)
    assert row_variances(np.empty((0, 3)), sigma, 1e-12).shape == (0,)
    with pytest.raises(DegeneratePortfolioError, match="below floor"):
        row_variances(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), sigma, 1e-12)


def test_sharpe_batch_scores_an_empty_block():
    stats = MarketStats(np.array([1e-3, 2e-3]), np.diag([1e-4, 4e-4]))
    assert neg_sharpe(stats).eval_many(np.empty((0, 2))).shape == (0,)


# ------------------------------------------------------ byte identity

@pytest.mark.parametrize("n", ROW_COUNTS)
def test_frontier_csv_bytes_match_the_per_cell_writer(tmp_path, n):
    cloud = cloud_of(np.random.default_rng(n), n)
    write_frontier_csv(cloud, tmp_path / "new.csv")
    old_write_frontier_csv(cloud, tmp_path / "old.csv")
    assert_same_text((tmp_path / "new.csv").read_text(), (tmp_path / "old.csv").read_text())


@pytest.mark.parametrize("n", ROW_COUNTS[1:])
def test_trace_csv_bytes_match_the_per_cell_writer(tmp_path, n):
    d = 3
    rng = np.random.default_rng(n)
    cells = finite_floats(rng, n * (2 * d + 6)).reshape(n, 2 * d + 6)
    records = [
        TraceRecord(
            iteration=i, consensus=row[:d], dispersion=row[d], residual=row[d + 1],
            best_value=row[d + 2], center_of_mass=row[d + 3:2 * d + 3], a_n=row[-3],
            b_n=row[-2], err_ref=None if i % 3 == 1 else float(row[-1]),
        )
        for i, row in enumerate(cells)
    ]
    write_trace_csv(RunTrace(records), tmp_path / "new.csv")
    old_write_trace_csv(RunTrace(records), tmp_path / "old.csv")
    assert_same_text((tmp_path / "new.csv").read_text(), (tmp_path / "old.csv").read_text())


def test_empty_trace_is_still_refused(tmp_path):
    with pytest.raises(ConfigurationError):
        write_trace_csv(RunTrace(), tmp_path / "x.csv")


@pytest.mark.parametrize("n", [2, _FRONTIER_CHUNK, _FRONTIER_CHUNK + 1])
def test_format_prices_matches_the_per_cell_formatter(n):
    # A price series needs two rows and positive prices, so only the
    # positive special values (and |random| > 0) appear here.
    rng = np.random.default_rng(n)
    prices = np.abs(finite_floats(rng, 2 * n).reshape(n, 2))
    prices[prices == 0.0] = 5e-324
    dates = tuple(np.datetime_as_string(np.datetime64("1990-01-01") + np.arange(n)))
    series = PriceSeries(dates, prices, ("A", "B"))
    assert_same_text(format_prices(series), old_format_prices(series))


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_fmt_vector_matches_the_per_cell_formatter(n):
    vec = finite_floats(np.random.default_rng(n), n)
    assert_same_text(fmt_vector(vec), old_fmt_vector(vec))
    assert_same_text(fmt_vector(list(vec)), old_fmt_vector(list(vec)))
    single = np.clip(vec, -1e38, 1e38).astype(np.float32)
    assert_same_text(fmt_vector(single), old_fmt_vector(single))


def test_fmt_vector_accepts_python_numbers():
    assert fmt_vector([1, -2, 0.5]) == old_fmt_vector([1, -2, 0.5]) == "1.0 -2.0 0.5"
    with pytest.raises(TypeError):
        fmt_vector(np.eye(2))


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (57, 2), (400, 3)])
def test_frontier_svg_circles_match_the_per_point_formula(n, seed):
    rng = np.random.default_rng(seed)
    risk = rng.uniform(0.005, 0.03, n)
    ret = rng.uniform(-1e-3, 2e-3, n)
    cloud = FrontierCloud(np.full((n, 2), 0.5), ret, risk, (ret - 1e-4) / risk)
    tangency, intercept, slope = (0.012, 9e-4), 1e-4, (9e-4 - 1e-4) / 0.012
    lines = "".join(_svg_pieces(cloud, intercept, slope, tangency)).splitlines()
    circles = [ln for ln in lines if ln.startswith("<circle")]
    assert circles == old_frontier_svg_circles(cloud, intercept, tangency)
    # the circles sit between the axis labels and the CML, in cloud order
    assert lines.index(circles[0]) == 6 and lines[6 + n].startswith("<line")


def test_frontier_svg_circles_keep_the_rounding_ties_of_the_per_point_formula():
    # The extremes (and the CML origin at risk 0) fix the plot range; every
    # other point sits exactly on a .xx5 tie of the reference pixel formula.
    tangency, intercept = (0.02, 1e-3), 2e-4
    frame = FrontierCloud(np.zeros((2, 1)), np.array([-1e-3, 2e-3]), np.array([0.04, 0.01]),
                          np.zeros(2))
    sx, sy = old_svg_scales(frame, intercept, tangency)
    xs, ys = on_rounding_ties(sx, 0.001, 0.039), on_rounding_ties(sy, -9e-4, 1.9e-3)
    assert len(xs) > 50 and len(ys) > 30
    risk = np.concatenate([frame.risk, xs, np.full(len(ys), 0.02)])
    ret = np.concatenate([frame.ret, np.full(len(xs), 5e-4), ys])
    cloud = FrontierCloud(np.zeros((risk.size, 1)), ret, risk, np.zeros(risk.size))
    lines = "".join(_svg_pieces(cloud, intercept, 0.04, tangency)).splitlines()
    assert [ln for ln in lines if ln.startswith("<circle")] == old_frontier_svg_circles(
        cloud, intercept, tangency
    )


def test_frontier_svg_circles_match_the_per_point_formula_across_chunks():
    n = 2 * _SVG_CHUNK + 1
    rng = np.random.default_rng(9)
    risk = rng.uniform(0.005, 0.03, n)
    ret = rng.uniform(-1e-3, 2e-3, n)
    cloud = FrontierCloud(np.full((n, 2), 0.5), ret, risk, (ret - 1e-4) / risk)
    tangency, intercept, slope = (0.012, 9e-4), 1e-4, (9e-4 - 1e-4) / 0.012
    lines = "".join(_svg_pieces(cloud, intercept, slope, tangency)).splitlines()
    assert lines[6:6 + n] == old_frontier_svg_circles(cloud, intercept, tangency)
    assert lines[5].startswith("<text") and lines[6 + n].startswith("<line")


@pytest.mark.parametrize(
    "shape,axis,keepdims",
    [
        ((1,), None, False), ((7,), None, False), ((1000,), None, False),  # a step's distances
        ((100, 20), 0, False), ((2, 10_000), 0, False),  # a run's center of mass
        ((200, 8, 4), -2, True), ((3, 129, 5), -2, True),  # every run's center of mass
        ((200, 8), -1, False), ((4, 1000), -1, False),  # every run's mean square
    ],
)
def test_mean_has_the_bits_of_np_mean(shape, axis, keepdims):
    x = np.random.default_rng(len(shape) + shape[-1]).standard_normal(shape) * 1e3
    got = np.asarray(_mean(x, axis=axis, keepdims=keepdims))
    want = np.asarray(np.mean(x, axis=axis, keepdims=keepdims))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# ------------------------------------------------------------ consensus


TIES = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, -2.5]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(2, 12), st.booleans(), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1.0, 1e3, 1e6]))
def test_consensus_keeps_the_bits_of_the_per_run_minimum(runs, n, batched, seed, beta):
    # Values drawn from a few ties, signed zeros among them, and normals.
    rng = np.random.default_rng(seed)
    lead = (runs,) if batched else ()
    values = np.where(rng.random(lead + (n,)) < 0.7, rng.choice(TIES, lead + (n,)),
                      rng.standard_normal(lead + (n,)))
    ens = Ensemble(rng.standard_normal(lead + (n, 3)), values)
    got = consensus_point(ens, beta)
    assert np.array_equal(got.view(np.uint64), oracles.consensus(ens, beta).view(np.uint64))
    # The minimum itself: the same value, and the same bits unless it is a zero.
    low = np.minimum.reduce(values.T.copy())[..., None]
    want = values.min(axis=-1, keepdims=True)
    assert np.array_equal(low, want)
    assert np.array_equal(np.where(want == 0.0, 0.0, low).view(np.uint64),
                          np.where(want == 0.0, 0.0, want).view(np.uint64))


@pytest.mark.parametrize("runs, n", [(21, 9), (200, 8), (3, 33), (1, 2)])
@pytest.mark.parametrize("beta", [0.0, 1.0, 1e6])
def test_consensus_keeps_its_bits_when_the_minimum_is_a_signed_zero(runs, n, beta):
    # Every run's minimum is a zero, mostly a tie of -0.0 and +0.0, which a
    # minimum taken in another order may resolve to the other zero.
    rng = np.random.default_rng((runs, n))
    values = rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, 2.5], (runs, n))
    values[:, 0] = 0.0
    values[:, -1] = -0.0
    ens = Ensemble(rng.standard_normal((runs, n, 4)), values)
    for e in (ens, Ensemble(ens.positions[0], values[0])):
        got = consensus_point(e, beta)
        assert np.array_equal(got.view(np.uint64), oracles.consensus(e, beta).view(np.uint64))
