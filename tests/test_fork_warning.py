"""Python >= 3.12's warning from ``os.fork`` neither escapes nor orphans a child.

On Python 3.12+ ``os.fork`` warns (``DeprecationWarning``) in the parent
when the process has other OS threads, such as a BLAS pool.  Here
``os.fork`` is wrapped to fork and then warn in the parent, with every
warning an error, on any Python version: a warning raised after the child
exists must neither escape nor leave the child unreaped.
"""

import os
import signal
import warnings

import numpy as np
import pytest

from cbopt import metaio
from cbopt.cli import main
from cbopt.core import RunTrace, TraceRecord, write_trace_csv

D = 3000  # a trace row holds 2 * D + 5 cells; 40 rows are several pieces


@pytest.fixture(autouse=True)
def deadline():
    def expire(signum, frame):
        raise TimeoutError("a forked writer did not finish within 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def warning_fork(monkeypatch):
    """``os.fork`` that warns in the parent the way Python 3.12 does; four
    usable CPUs are reported so any host forks."""
    calls = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            calls.append(pid)
            warnings.warn("This process is multi-threaded, use of fork() may lead to "
                          "deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return calls


def no_children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def trace_of(n: int) -> RunTrace:
    rng = np.random.default_rng(n)
    return RunTrace([
        TraceRecord(i, rng.standard_normal(D), float(i), 0.5, -1.0,
                    rng.standard_normal(D), 0.25 * i, 0.125 * i)
        for i in range(n)
    ])


def test_trace_writer_keeps_its_children_when_fork_warns(tmp_path, warning_fork):
    trace = trace_of(40)
    write_trace_csv(trace, tmp_path / "one.csv", workers=1)
    assert warning_fork == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_trace_csv(trace, tmp_path / "three.csv", workers=3)
    assert len(warning_fork) == 2
    assert (tmp_path / "three.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert no_children_left()


def test_cli_solve_is_unchanged_when_fork_warns(tmp_path, warning_fork, capsys):
    args = ["solve", "--objective", "sphere", "--dim", str(D), "--max-iters", "20",
            "--reference", "none", "--seed", "7"]
    assert main(args + ["--workers", "1", "--out", str(tmp_path / "one")]) == 0
    assert warning_fork == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + ["--workers", "3", "--out", str(tmp_path / "three")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert len(warning_fork) == 2
    for name in ("trace.csv", "result.txt"):
        assert (tmp_path / "three" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
    assert no_children_left()
    assert metaio._PIECE_CELLS < 21 * (2 * D + 5)  # so the trace really was cut
