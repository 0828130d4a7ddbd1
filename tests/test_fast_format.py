"""The vectorized float formatter writes exactly ``repr``'s bytes.

``metaio._fmt_block`` decides the shortest round-trip digits of most cells
in int64 and hands the rest to ``repr``.  Every test compares it byte for
byte with the expression it replaces, on the cells that sit on or next to
each of its case boundaries.
"""

import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbopt import metaio
from cbopt.metaio import _fmt_block, _write_csv, usable_cpus


def reference(block) -> str:
    return "\n".join(",".join(map(repr, row)) for row in np.asarray(block, dtype=float).tolist())


def assert_same_text(block):
    block = np.asarray(block, dtype=float)
    got, want = _fmt_block(block), reference(block).encode()
    if got != want:  # name the first differing cell, not a megabyte of text
        pairs = zip(got.replace(b"\n", b",").split(b","), want.replace(b"\n", b",").split(b","))
        bad = [(g, w) for g, w in pairs if g != w]
        pytest.fail(f"{len(bad)} cells differ, first (got, repr): {bad[:3]}")


def with_neighbours(values, ulps: int = 3) -> np.ndarray:
    """``values`` and the floats up to ``ulps`` steps either side, both signs."""
    out = []
    for v in np.asarray(values, dtype=float):
        up = down = v
        out.append(v)
        for _ in range(ulps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            out += [up, down]
    out = np.array(out)
    return np.concatenate([out, -out])


def random_bits(rng, n: int, exponents=None) -> np.ndarray:
    """Doubles with uniform random mantissa and sign bits; exponent fields
    uniform over ``exponents`` (biased), or random bits everywhere."""
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    if exponents is not None:
        field = rng.integers(exponents[0], exponents[1], size=n, dtype=np.uint64)
        bits = (bits & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (field << np.uint64(52))
    return bits.view(np.float64)


def test_random_bit_patterns_over_every_exponent_and_sign():
    rng = np.random.default_rng(1)
    assert_same_text(random_bits(rng, 200_000).reshape(-1, 20))


def test_random_bit_patterns_around_the_fast_domain():
    # biased exponents 1007 .. 1077 cover 2**-16 .. 2**54: 1e-4 <= |x| < 2**53
    # and an order of magnitude either side
    rng = np.random.default_rng(2)
    assert_same_text(random_bits(rng, 23 * 13_000, (1007, 1078)).reshape(-1, 23))


def test_short_decimals_of_every_length():
    rng = np.random.default_rng(3)
    digits = rng.integers(1, 10 ** rng.integers(1, 16, 50_000), dtype=np.int64)
    x = digits / 10.0 ** rng.integers(-2, 21, 50_000)
    assert_same_text(x.reshape(-1, 10))
    # the formatter's own cases: about 7% of random weights have <= 15 digits
    weights = rng.dirichlet(np.ones(20), size=2000)
    assert_same_text(weights)


def test_powers_of_two_and_ten_with_their_neighbours():
    twos = with_neighbours([2.0**k for k in range(-20, 60)])
    tens = with_neighbours([10.0**k for k in range(-8, 22)])
    assert_same_text(twos.reshape(-1, 14))
    assert_same_text(tens.reshape(-1, 14))


def test_decimal_ties_between_two_candidates():
    # x * 10**k ends in exactly .5 for k = 16 - floor(log10 x) (a tie between
    # two 17-digit candidates) or for k - 1 (two 16-digit ones); such x have
    # few fraction bits, so they are built from quarters and eighths.
    rng = np.random.default_rng(4)
    x = rng.integers(2**40, 2**53, 20_000) / 2.0 ** rng.integers(0, 6, 20_000)
    ties = []
    for v in x.tolist():
        scale = Fraction(10) ** (16 - math.floor(math.log10(v)))
        if (Fraction(v) * scale).denominator == 2 or (Fraction(v) * scale / 10).denominator == 2:
            ties.append(v)
    assert len(ties) > 1000
    assert_same_text(np.array(ties[: len(ties) // 6 * 6]).reshape(-1, 6))


def test_half_ulp_boundaries():
    # Short decimals exactly halfway between two adjacent doubles: n + 1/2
    # (17 digits) just below 2**53, odd integers (16 digits) just above it.
    rng = np.random.default_rng(5)
    below = rng.integers(2**52, 2**53, 3000).astype(float)
    above = (2**53 + 2 * rng.integers(1, 2**40, 3000)).astype(float)
    for v in [*below[:20].tolist(), *above[:20].tolist()]:
        mid = (Fraction(v) + Fraction(float(np.nextafter(v, np.inf)))) / 2
        assert (10 * mid).denominator == 1 and mid != int(v)
    assert_same_text(with_neighbours(np.concatenate([below, above]), ulps=1).reshape(-1, 6))


def test_edges_of_the_domain_and_special_values():
    edges = with_neighbours([1e-4, 1e16, 2.0**53, 2.0**53 - 1, 9999999999999998.0, 1.0, 0.1])
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308]
    subnormals = random_bits(np.random.default_rng(6), 1000, (0, 1))
    assert_same_text(np.concatenate([edges, specials, subnormals]).reshape(1, -1))


@pytest.mark.parametrize("shape", [(1, 1), (1, 37), (37, 1), (0, 5), (5, 0), (0, 0)])
def test_block_shapes(shape):
    assert_same_text(np.random.default_rng(7).standard_normal(shape))


def test_fmt_block_text_splits_into_rows():
    rng = np.random.default_rng(8)
    for shape in [(1, 1), (3, 4), (4, 0)]:
        block = rng.standard_normal(shape)
        want = [",".join(map(repr, row)) for row in block.tolist()]
        assert _fmt_block(block).decode().split("\n") == want
    assert _fmt_block(rng.standard_normal((0, 4))) == b""


def test_non_contiguous_blocks():
    rng = np.random.default_rng(9)
    base = rng.standard_normal((300, 40)) * 10.0 ** rng.integers(-6, 17, (300, 40))
    for block in (base.T, base[::3, 1::4], base[:, ::-1], np.asfortranarray(base)):
        assert not block.flags.c_contiguous
        assert_same_text(block)


def test_several_kernel_passes(monkeypatch):
    # Blocks longer than one pass continue their rows across pass boundaries.
    monkeypatch.setattr(metaio, "_FMT_CELLS", 7)
    rng = np.random.default_rng(10)
    for shape in [(5, 3), (3, 7), (1, 50), (50, 1), (9, 14)]:
        assert_same_text(rng.standard_normal(shape))


@pytest.mark.parametrize("workers", [1, max(2, usable_cpus())])
def test_write_csv_matches_repr_for_every_worker_count(tmp_path, monkeypatch, workers):
    if workers > 1:  # let any host fork: the bytes must not depend on it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)),
                            raising=False)
    rng = np.random.default_rng(11)
    rows = 3 * metaio._PIECE_CELLS // 6 + 17
    block = random_bits(rng, rows * 5, (1007, 1078)).reshape(rows, 5)
    labels = np.array([f"r{i}" for i in range(rows)])
    _write_csv(tmp_path / "t.csv", "id,a,b,c,d,e", [labels, block[:, 0], block[:, 1:]], workers)
    want = "id,a,b,c,d,e\n" + "".join(
        f"r{i}," + ",".join(map(repr, row)) + "\n" for i, row in enumerate(block.tolist())
    )
    assert (tmp_path / "t.csv").read_text() == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.floats(width=64), min_size=3, max_size=3), min_size=1, max_size=20))
def test_any_float_rows(rows):
    assert_same_text(np.array(rows, dtype=float))
