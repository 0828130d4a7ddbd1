"""``--workers N`` caps every thread and process a command starts at N CPUs.

The CLI sets ``metaio._CPU_CAP`` for the length of a command, and
``metaio.usable_cpus()``, which sizes both the kernels' row-block threads
and the CSV formatters' forked processes, returns at most that.  Each test
here makes the host report four usable CPUs, so the uncapped run takes the
threaded and forked paths on any machine, and counts the threads started
and the ``os.fork`` calls.  The decay experiment's run ranges call kernels
from worker threads, which do not see the cap; those nested calls run
inline, so the cap still holds.
"""

import os
import threading

import pytest

from cbopt import market, metaio
from cbopt.cli import main

DIM = 6000  # with 100 particles a (100, 6000) kernel is five row blocks


@pytest.fixture
def spawned(monkeypatch, cpus):
    """Names of the threads started, the most threads alive at once, and the
    number of forks, on a host that reports four usable CPUs."""
    cpus(4)
    seen = {"threads": [], "peak": 1, "forks": 0}
    real_start, real_fork = threading.Thread.start, os.fork

    def start(self):
        seen["threads"].append(self.name)
        real_start(self)
        seen["peak"] = max(seen["peak"], threading.active_count())

    def fork():
        seen["forks"] += 1
        return real_fork()

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(os, "fork", fork)
    return seen


def ball_solve(out, *extra):
    """A Rastrigin solve on the unit ball about 0: 21 trace rows of 12,005
    cells, five formatter pieces."""
    return ["solve", "--objective", "rastrigin", "--dim", str(DIM),
            "--projector", "ball:" + " ".join(["0"] * DIM) + ",1",
            "--max-iters", "20", "--seed", "7", "--out", str(out), *extra]


def artifacts(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_one_worker_starts_no_thread_and_no_process(tmp_path, spawned):
    assert main(ball_solve(tmp_path / "all")) == 0
    assert spawned["threads"] and spawned["forks"]  # the uncapped run used both
    spawned.update(threads=[], peak=1, forks=0)
    assert main(ball_solve(tmp_path / "one", "--workers", "1")) == 0
    assert spawned == {"threads": [], "peak": 1, "forks": 0}
    assert artifacts(tmp_path / "one") == artifacts(tmp_path / "all")


def test_two_workers_start_at_most_one_thread_and_one_process(tmp_path, spawned):
    # 200 particles: ten row blocks, enough for a thread per reported CPU
    assert main(ball_solve(tmp_path / "all", "--particles", "200")) == 0
    assert "block-3" in spawned["threads"] and spawned["forks"] == 3
    spawned.update(threads=[], peak=1, forks=0)
    assert main(ball_solve(tmp_path / "two", "--particles", "200", "--workers", "2")) == 0
    assert set(spawned["threads"]) == {"block-1"}
    assert spawned["peak"] == 2
    assert spawned["forks"] == 1
    assert artifacts(tmp_path / "two") == artifacts(tmp_path / "all")


def ball_stack(out, *extra):
    """A decay stack of 4 runs of (64, 6000) on the unit ball: four run ranges
    of one run, whose projections are four row blocks each, so a nested
    projection on a worker thread would start threads of its own."""
    return ["diagnose", "--objective", "sphere", "--dim", str(DIM), "--particles", "64",
            "--projector", "ball:" + " ".join(["0"] * DIM) + ",1", "--runs", "4",
            "--horizon", "2", "--reference", "none", "--seed", "7", "--out", str(out), *extra]


def wide_stack(out, *extra):
    """Runs of (8, 20000): each run alone is more than one row block."""
    return ["diagnose", "--objective", "sphere", "--dim", "20000", "--particles", "8",
            "--runs", "4", "--horizon", "3", "--reference", "none", "--seed", "7",
            "--out", str(out), *extra]


@pytest.mark.parametrize("stack", [ball_stack, wide_stack])
def test_one_worker_steps_a_threaded_decay_stack_on_one_thread(tmp_path, spawned, stack):
    assert main(stack(tmp_path / "all")) == 0
    assert "block-1" in spawned["threads"]
    spawned.update(threads=[], peak=1, forks=0)
    assert main(stack(tmp_path / "one", "--workers", "1")) == 0
    assert spawned == {"threads": [], "peak": 1, "forks": 0}
    assert artifacts(tmp_path / "one") == artifacts(tmp_path / "all")


@pytest.mark.parametrize("stack", [ball_stack, wide_stack])
def test_two_workers_keep_a_decay_stack_at_two_threads(tmp_path, spawned, stack):
    assert main(stack(tmp_path / "all")) == 0
    spawned.update(threads=[], peak=1, forks=0)
    assert main(stack(tmp_path / "two", "--workers", "2")) == 0
    assert set(spawned["threads"]) == {"block-1"}
    assert spawned["peak"] == 2
    assert artifacts(tmp_path / "two") == artifacts(tmp_path / "all")


@pytest.mark.parametrize("argv, during, status", [
    (["--rows", "20", "--workers", "1"], [1], 0),
    (["--assets", "0", "--workers", "1"], [1], 1),  # demo_market rejects 0 assets
    (["--workers", "0"], [], 1),  # rejected before the command runs
])
def test_the_cap_is_lifted_when_main_returns(tmp_path, monkeypatch, cpus, argv, during, status):
    cpus(3)
    seen, real = [], market.demo_market

    def demo_market(assets):
        seen.append(metaio.usable_cpus())
        return real(assets)

    monkeypatch.setattr(market, "demo_market", demo_market)
    assert main(["synth", *argv, "--out", str(tmp_path)]) == status
    assert seen == during
    assert metaio._CPU_CAP.get() is None
    assert metaio.usable_cpus() == 3
