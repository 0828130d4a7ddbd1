"""The ``.2f`` array kernel behind ``frontier.svg`` writes exactly
``format(v, ".2f")``'s bytes.

``metaio._fmt_2f_rows`` rounds 100 * v half to even in int64 for
1 <= v < 10**4 and hands every other row to ``format``.  Each test compares
it with the per-value expression, and ``_svg_pieces`` with the renderer it
replaced, which is kept here as the reference.
"""

import itertools

import numpy as np
import pytest

from cbopt.cli import _svg_pieces
from cbopt.market import FrontierCloud
from cbopt.metaio import _fmt_2f_rows

# Odd literal lengths, so the kernel pads cells to even bytes.
TEXTS = (b"<p x=", b' y="', b'"/>\n')


def reference(texts, *columns) -> bytes:
    rows = zip(*(col.tolist() for col in columns))
    return b"".join(
        b"".join(itertools.chain(*zip(texts, (format(v, ".2f").encode() for v in row)),
                                 texts[-1:]))
        for row in rows
    )


def assert_same_bytes(*columns, texts=TEXTS):
    columns = [np.asarray(col, dtype=float) for col in columns]
    got, want = _fmt_2f_rows(texts, *columns), reference(texts, *columns)
    if got != want:  # name the first differing row, not a megabyte of text
        bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"rows differ, first (got, format): {bad[:3]}")


def with_neighbours(values, ulps: int = 2) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    out = [values]
    up = down = values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def test_random_values_over_the_domain():
    rng = np.random.default_rng(1)
    x = rng.uniform(1.0, 1e4, 100_000)
    y = 10.0 ** rng.uniform(0.0, 4.0, x.size)  # as many small values as large
    assert_same_bytes(x, y)
    assert_same_bytes(y, texts=(b"", b"\n"))


def test_exact_binary_ties_round_half_to_even():
    assert _fmt_2f_rows((b"", b","), np.array([123.125, 123.375])) == b"123.12,123.38,"
    odd_eighths = np.arange(8, 80_000, 2) / 8 + 1 / 8  # k / 8 for odd k: every .x25 and .x75
    assert_same_bytes(odd_eighths, odd_eighths[::-1])


def test_near_ties():
    rng = np.random.default_rng(2)
    near = np.round(rng.uniform(1.0, 1e4, 20_000) * 200) / 200  # on or next to .xx5
    near = with_neighbours(near)
    assert_same_bytes(near, near[::-1])


def test_carries_into_the_next_digit():
    nines = np.array([9.995, 99.995, 999.995, 9999.994, 9.999, 99.999, 999.999, 1.995])
    nines = with_neighbours(nines, 4)
    assert_same_bytes(nines, nines[::-1])
    # The integer part no longer fits four digits: format's own text.
    assert _fmt_2f_rows((b"", b","), np.array([9999.996, 9999.99])) == b"10000.00,9999.99,"


def test_cells_outside_the_domain_get_formats_text():
    outside = [0.0, -0.0, 0.999, 1 - 2**-53, -1.0, -5.5, np.nan, np.inf, -np.inf, 1e6, 1e300,
               5e-324]
    inside = np.linspace(1.0, 9999.0, len(outside))
    assert_same_bytes(outside, inside)
    assert_same_bytes(inside, outside)
    # Rows outside the domain first, last, adjacent and alone.
    x = np.array([np.nan, 2.5, 3.5, -1.0, 0.5, 4.5, 1e4, np.inf])
    assert_same_bytes(x, np.full(x.size, 7.25))
    assert_same_bytes(np.array([np.nan]), np.array([1.5]))
    assert _fmt_2f_rows(TEXTS, np.empty(0), np.empty(0)) == b""


def old_svg_pieces(cloud, intercept, slope, tangency):
    """The renderer before the array kernel: one ``str.format`` per circle."""
    width, height, pad = 640.0, 440.0, 50.0
    t_risk, t_ret = float(tangency[0]), float(tangency[1])
    risks = np.concatenate([cloud.risk, [t_risk, 0.0]])
    rets = np.concatenate([cloud.ret, [t_ret, intercept]])
    x_lo, x_hi = float(risks.min()), float(risks.max())
    y_lo, y_hi = float(rets.min()), float(rets.max())
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    x_lo -= 0.05 * x_span
    x_hi += 0.05 * x_span
    y_lo -= 0.05 * y_span
    y_hi += 0.05 * y_span

    def sx(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    yield "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{pad:.0f}" y1="{height - pad:.0f}" x2="{width - pad:.0f}" '
        f'y2="{height - pad:.0f}" stroke="black"/>',
        f'<line x1="{pad:.0f}" y1="{pad:.0f}" x2="{pad:.0f}" y2="{height - pad:.0f}" '
        'stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="{height - 12:.0f}" font-size="13" '
        'text-anchor="middle">risk</text>',
        f'<text x="14" y="{height / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 14 {height / 2:.0f})">return</text>',
    ]) + "\n"
    circle = '<circle cx="{:.2f}" cy="{:.2f}" r="1.5" fill="#4477aa" fill-opacity="0.45"/>\n'
    for start in range(0, len(cloud), 8192):
        part = slice(start, start + 8192)
        xs, ys = sx(cloud.risk[part]).tolist(), sy(cloud.ret[part]).tolist()
        yield "".join(map(circle.format, xs, ys))
    y_at_hi = intercept + slope * x_hi
    tx, ty = float(f"{sx(t_risk):.2f}"), float(f"{sy(t_ret):.2f}")
    star = []
    for k in range(10):
        radius = 9.0 if k % 2 == 0 else 3.8
        angle = -np.pi / 2 + k * np.pi / 5
        star.append(f"{tx + radius * np.cos(angle):.2f},{ty + radius * np.sin(angle):.2f}")
    yield "\n".join([
        f'<line x1="{sx(0.0):.2f}" y1="{sy(intercept):.2f}" x2="{sx(x_hi):.2f}" '
        f'y2="{sy(y_at_hi):.2f}" stroke="#228833" stroke-width="1.5"/>',
        f'<polygon points="{" ".join(star)}" fill="#cc3311"/>',
        "</svg>",
    ]) + "\n"


def test_svg_pieces_match_the_old_renderer_on_a_30k_cloud():
    n = 30_000
    rng = np.random.default_rng(7)
    weights = rng.dirichlet(np.ones(5), n)
    risk = rng.uniform(0.005, 0.03, n)
    ret = rng.uniform(-1e-3, 2e-3, n)
    cloud = FrontierCloud(weights, ret, risk, (ret - 1e-4) / risk)
    args = cloud, 1e-4, (9e-4 - 1e-4) / 0.012, (0.012, 9e-4)
    assert list(_svg_pieces(*args)) == list(old_svg_pieces(*args))
