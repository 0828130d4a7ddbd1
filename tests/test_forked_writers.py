"""Large CSVs formatted on forked processes are byte-identical to one process.

``metaio._pieces`` splits a float block into pieces of about
``_PIECE_CELLS`` cells; process 0 (the caller) and forked children format
them in turn, one process per usable CPU.  Every test here compares
against one process (a cap of 1, as ``--workers 1`` sets), counts the real
``os.fork`` calls, and runs under a deadline so a hung pipe fails instead
of stalling the suite.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from cbopt import metaio
from cbopt.cli import main
from cbopt.core import RunTrace, TraceRecord, write_trace_csv
from cbopt.market import FrontierCloud, format_stats, write_frontier_csv
from conftest import no_children_left

pytestmark = pytest.mark.usefixtures("deadline")

PIECE = metaio._PIECE_CELLS
D = 4  # assets; a frontier row has D + 3 cells
PIECE_ROWS = PIECE // (D + 3)
SPECIAL = np.array([-0.0, 5e-324, 1e16, 0.0, -5e-324, -1e16, 9.999e-5, 1e-5])


@pytest.fixture
def forks(monkeypatch, cpus):
    """Count the real forks; report four usable CPUs so any host forks."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    cpus(4)
    return calls


def cells(rng, shape) -> np.ndarray:
    """Finite doubles with random bits, with the special values spread through."""
    n = int(np.prod(shape))
    out = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
    out[~np.isfinite(out)] = 1.0
    idx = np.arange(0, n, 1009)
    out[idx] = np.resize(SPECIAL, idx.size)
    return out.reshape(shape)


def cloud_of(n: int) -> FrontierCloud:
    block = cells(np.random.default_rng(n), (n, D + 3))
    return FrontierCloud(block[:, 3:].copy(), block[:, 1].copy(), block[:, 0].copy(),
                         block[:, 2].copy())


def trace_of(n: int, d: int) -> RunTrace:
    rng = np.random.default_rng(n * 7919 + d)
    records = [
        TraceRecord(
            iteration=3 * i, consensus=row[:d], dispersion=row[d], residual=row[d + 1],
            best_value=row[d + 2], center_of_mass=row[d + 3:2 * d + 3], a_n=row[-3],
            b_n=row[-2], err_ref=None if i % 3 == 1 else float(row[-1]),
        )
        for i, row in enumerate(cells(rng, (n, 2 * d + 6)))
    ]
    return RunTrace(records)


def n_pieces(rows: int, row_cells: int) -> int:
    step = max(1, PIECE // row_cells)
    return -(-rows // step)


@pytest.mark.parametrize(
    "n", [0, 1, PIECE_ROWS - 1, PIECE_ROWS, PIECE_ROWS + 1, 3 * PIECE_ROWS + 1]
)
def test_frontier_csv_bytes_do_not_depend_on_workers(tmp_path, forks, cap, n):
    cloud = cloud_of(n)
    cap(1)
    write_frontier_csv(cloud, tmp_path / "one.csv")
    assert forks == []
    want = (tmp_path / "one.csv").read_bytes()
    for workers in (2, 3):
        forks.clear()
        cap(workers)
        write_frontier_csv(cloud, tmp_path / f"w{workers}.csv")
        assert len(forks) == max(0, min(workers, n_pieces(n, D + 3)) - 1)
        assert (tmp_path / f"w{workers}.csv").read_bytes() == want
    assert no_children_left()


@pytest.mark.parametrize(
    "n, d",
    [
        (4, PIECE // 2),  # each row is wider than a piece
        (2, PIECE // 2),  # fewer rows (pieces) than processes
        (2 * (PIECE // 11) + 5, 3),  # narrow rows, many rows per piece
    ],
)
def test_trace_csv_bytes_do_not_depend_on_workers(tmp_path, forks, cap, n, d):
    trace = trace_of(n, d)
    cap(1)
    write_trace_csv(trace, tmp_path / "one.csv")
    assert forks == []
    want = (tmp_path / "one.csv").read_bytes()
    for workers in (2, 3):
        forks.clear()
        cap(workers)
        write_trace_csv(trace, tmp_path / f"w{workers}.csv")
        assert len(forks) == min(workers, n_pieces(n, 2 * d + 5)) - 1
        assert (tmp_path / f"w{workers}.csv").read_bytes() == want
    assert no_children_left()


def fail_in_children(monkeypatch):
    parent = os.getpid()
    real = metaio._fmt_block

    def fmt_block(block, *end):
        if os.getpid() != parent:
            raise RuntimeError("formatter failed in a child")
        return real(block, *end)

    monkeypatch.setattr(metaio, "_fmt_block", fmt_block)


def test_a_child_that_raises_makes_the_parent_raise(tmp_path, forks, cap, monkeypatch):
    fail_in_children(monkeypatch)
    cap(2)
    with pytest.raises(OSError, match="formatter process"):
        write_frontier_csv(cloud_of(3 * PIECE_ROWS), tmp_path / "x.csv")
    assert len(forks) == 1
    assert no_children_left()


def test_a_child_that_raises_is_an_error_line_from_the_cli(tmp_path, forks, monkeypatch,
                                                             capsys, market3):
    stats = tmp_path / "stats.txt"
    stats.write_text(format_stats(market3))
    fail_in_children(monkeypatch)
    samples = 3 * (PIECE // (market3.dim + 3))
    assert main(["frontier", "--stats", str(stats), "--samples", str(samples),
                 "--workers", "2", "--max-iters", "5", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "formatter process" in err
    assert "Traceback" not in err
    assert len(forks) == 1
    assert no_children_left()


def test_stopping_early_reaps_children_blocked_on_a_full_pipe(forks, cap):
    block = cells(np.random.default_rng(5), (4 * PIECE_ROWS, D + 3))

    def render(lo, hi):
        return metaio._fmt_block(block[lo:hi]) + b"\n"

    cap(3)
    pieces = metaio._pieces(len(block), D + 3, render)
    assert next(pieces) == render(0, PIECE_ROWS)
    pieces.close()  # children hold ~1.3 MB pieces against a 64 kB pipe
    assert len(forks) == 2
    assert no_children_left()


def test_without_fork_the_same_bytes_come_from_one_process(tmp_path, monkeypatch, cap, cpus):
    cloud = cloud_of(3 * PIECE_ROWS + 1)
    cap(1)
    write_frontier_csv(cloud, tmp_path / "one.csv")
    cpus(4)
    monkeypatch.delattr(os, "fork")
    cap(3)
    write_frontier_csv(cloud, tmp_path / "w3.csv")
    assert (tmp_path / "w3.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_nothing_forks_while_another_thread_runs(tmp_path, forks, cap):
    cloud = cloud_of(3 * PIECE_ROWS + 1)
    cap(1)
    write_frontier_csv(cloud, tmp_path / "one.csv")
    cap(None)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        write_frontier_csv(cloud, tmp_path / "w3.csv")
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert forks == []
    assert (tmp_path / "w3.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_processes_are_capped_at_the_usable_cpus(tmp_path, forks, cap, cpus):
    # 4 pieces bound the forks even if the cap were lost; a --workers above
    # the host's CPUs does not raise it
    cpus(2)
    cap(8)
    assert metaio.usable_cpus() == 2
    write_frontier_csv(cloud_of(4 * PIECE_ROWS), tmp_path / "x.csv")
    assert len(forks) == 1
    assert no_children_left()


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert metaio.usable_cpus() == 3


def test_importing_the_cli_loads_no_process_or_thread_pool():
    code = ("import sys, cbopt.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
