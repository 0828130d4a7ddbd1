"""A sampled frontier cloud keeps seeds, not weights.

``market.sample_frontier`` scores each block of chunks as it draws it and
returns a cloud whose ``weights`` are drawn again where they are read:
``write_frontier_csv`` draws each piece's rows from their chunks, each chunk
at most once per process.  These tests pin that the streamed path writes the
bytes of the materialized cloud and that the frontier command's memory does
not grow with samples x assets.
"""

import contextlib
import io
import tracemalloc
import warnings

import numpy as np
import pytest

from test_market import CLOUD_SIZES, chunked_frontier_weights

from cbopt import MarketStats, ball, demo_market
from cbopt import market
from cbopt.cli import _derived_seeds, main
from cbopt.market import FrontierCloud, format_stats, sample_frontier, write_frontier_csv

SEED = 5


def stats_file(tmp_path, d):
    path = tmp_path / f"stats{d}.txt"
    path.write_text(format_stats(MarketStats(*demo_market(d))))
    return path


def materialized(cloud):
    return FrontierCloud(cloud.weights, cloud.ret, cloud.risk, cloud.sharpe)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("d", [1, 3, 20])
@pytest.mark.parametrize("n", CLOUD_SIZES)
def test_cli_frontier_csv_is_the_materialized_cloud(tmp_path, cap, cpus, n, d, k):
    # three reported CPUs take the forked path for any cloud of three pieces
    cpus(k)
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["frontier", "--stats", str(stats_file(tmp_path, d)), "--samples", str(n),
                     "--max-iters", "2", "--seed", str(SEED), "--out", str(out)]) == 0
    cloud = sample_frontier(MarketStats(*demo_market(d)), n, _derived_seeds(SEED, 2)[1])
    cap(1)
    write_frontier_csv(materialized(cloud), tmp_path / "want.csv")
    assert (out / "frontier.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("d", [3, 20])
def test_weights_read_after_a_write_and_out_of_order_are_the_chunked_draws(tmp_path, d):
    n = CLOUD_SIZES[-1]
    want = chunked_frontier_weights(n, d, 11)
    cloud = sample_frontier(MarketStats(*demo_market(d)), n, seed=11)
    write_frontier_csv(cloud, tmp_path / "f.csv")
    np.testing.assert_array_equal(cloud.weights, want)
    np.testing.assert_array_equal(cloud.weights, want)
    rows = cloud._weights
    for lo, hi in [(20000, 24577), (0, 1), (8191, 8193), (100, 16500), (24576, 24577), (5, 5)]:
        np.testing.assert_array_equal(rows[lo:hi], want[lo:hi])
    assert len(cloud) == n and rows.shape == (n, d)


@pytest.mark.parametrize("n", [5000, 20000])
def test_writing_into_read_weights_changes_no_draw(tmp_path, cap, n):
    cloud = sample_frontier(MarketStats(*demo_market(3)), n, seed=2)
    cap(1)
    write_frontier_csv(materialized(cloud), tmp_path / "want.csv")
    cloud.weights[:] = 0.0
    write_frontier_csv(cloud, tmp_path / "f.csv")
    assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    np.testing.assert_array_equal(cloud.weights, chunked_frontier_weights(n, 3, 2))


def test_a_write_draws_each_chunk_once(tmp_path, monkeypatch, cap):
    n = CLOUD_SIZES[-1]
    cloud = sample_frontier(MarketStats(*demo_market(6)), n, seed=3)
    drawn = []
    real = np.random.default_rng

    def counting_rng(seed):
        drawn.append(seed.spawn_key)
        return real(seed)

    monkeypatch.setattr(market.np.random, "default_rng", counting_rng)
    cap(1)
    write_frontier_csv(cloud, tmp_path / "f.csv")
    # pieces cross chunk edges, and each chunk is drawn once, in order
    assert drawn == [(i,) for i in range(-(-n // market._FRONTIER_CHUNK))]


def test_len_does_not_draw_the_weights(monkeypatch):
    cloud = sample_frontier(MarketStats(*demo_market(3)), 20000, seed=1)
    monkeypatch.setattr(market._Draws, "_chunk", lambda self, k: pytest.fail("drew a chunk"))
    assert len(cloud) == 20000


def test_frontier_memory_does_not_grow_with_samples_times_assets(tmp_path):
    stats = stats_file(tmp_path, 40)
    peaks = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for n in (10, 25_000, 100_000):  # the first run pays numpy's one-time setup
            tracemalloc.start()
            try:
                assert main(["frontier", "--stats", str(stats), "--samples", str(n),
                             "--max-iters", "5", "--out", str(tmp_path / f"f{n}")]) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    # 75,000 more rows of 40 weights are 24 MB; their three scores are 1.8 MB
    assert peaks[100_000] - peaks[25_000] < 6e6, peaks


def test_a_wide_frontier_too_large_to_hold_fails_on_its_scores(tmp_path, capsys):
    # The (3, n) scores are the first allocation, so 10**13 samples fail at
    # once at 40 assets as at 3, before any seed is spawned.
    out = tmp_path / "out"
    assert main(["frontier", "--stats", str(stats_file(tmp_path, 40)), "--samples",
                 "10000000000000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert "(3, 10000000000000)" in err
    assert not (out / "frontier.csv").exists()


def test_ball_membership_far_from_the_origin_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside = ball([-1e308, 0], 1).contains_rows([[1e308, 0], [-1e308, 0.5]])
    np.testing.assert_array_equal(inside, [False, True])
