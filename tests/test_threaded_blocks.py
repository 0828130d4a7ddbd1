"""Row-blocked kernels on threads: what the threads must leave behind.

``metaio._each_block`` runs a kernel's row blocks on up to one thread per
usable CPU; ``test_blocked_kernels`` pins each kernel's bits on one and on
three reported CPUs.  The tests here report three usable CPUs or more and
shrink the row blocks so the threaded path runs on any host, and check the
kernels that take no blocks or stay inline, and what the threads must leave
behind: no live thread, every range run once, each thread's own scratch, no
threads started from a shared range, the caller's numpy error state
honoured, worker exceptions re-raised, and the forked CSV formatters still
forking.
"""

import contextlib
import math
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import oracles
from cbopt import core, metaio
from cbopt.core import CboParams, Ensemble, NoiseMode, predictor_step
from cbopt.core import write_trace_csv
from cbopt.diagnostics import decay_experiment
from cbopt.errors import ConfigurationError, NumericDomainError
from cbopt.objectives import rastrigin, sphere
from cbopt.projections import ball, simplex
from conftest import assert_same_bits, run_of, values

# ------------------------------------------------------------------- kernels


def test_predictor_step_writes_into_out(cpus):
    cpus(3)
    params = CboParams(lam=1.3, sigma=0.7, beta=1.0, h=0.05, n_particles=9)
    ens = Ensemble(values(0, (5, 9, 25)), np.zeros((5, 9)))
    cons, eta = values(1, (5, 25)), values(2, (5, 25))
    want = predictor_step(ens, cons, params, eta)
    out = np.full((5, 9, 25), np.nan)
    assert predictor_step(ens, cons, params, eta, out) is out
    assert_same_bits(out, want)
    # The rows of three runs, as a range of runs passes them.
    part = Ensemble(ens.positions[1:4], ens.objective_values[1:4])
    assert predictor_step(part, cons[1:4], params, eta[1:4], out[1:4]) is not None
    assert_same_bits(out, want)
    frozen = np.empty((5, 9, 25))
    frozen.flags.writeable = False
    for bad in (np.empty((5, 9, 24)), np.empty((5, 9, 25), np.float32), frozen,
                ens.positions, ens.positions[::-1], [[0.0] * 25] * 45):
        with pytest.raises(ConfigurationError, match="out must be"):
            predictor_step(ens, cons, params, eta, bad)


@pytest.mark.parametrize("block", [7, 64, None])  # None: the default _BLOCK_CELLS
@pytest.mark.parametrize("tail", [(11,), (3, 5)])  # (m, d) rows, or (R, N, d) runs
@pytest.mark.parametrize("eta_shape", ["none", "row", "full"])
@pytest.mark.parametrize("k", [1, 3])
def test_row_sq(block_cells, cpus, block, tail, eta_shape, k):
    block_cells(block)
    cells, d = metaio._BLOCK_CELLS, tail[-1]
    shape = (5 * max(1, cells // math.prod(tail)), *tail)  # five row blocks
    rows = values((cells, 0), shape)
    center = values((cells, 1), (d,) if len(shape) == 2 else (shape[0], 1, d))
    eta = {"none": None, "row": values((cells, 2), (d,)), "full": values((cells, 2), shape)}
    eta = eta[eta_shape]
    operands = [a for a in (rows, center, eta) if a is not None]
    copies = [a.copy() for a in operands]
    started = cpus(k)
    assert_same_bits(metaio._row_sq(rows, center, eta), oracles.row_sq(rows, center, eta))
    assert bool(started) == (k > 1)
    assert threading.active_count() == 1
    for before, after in zip(copies, operands):
        assert_same_bits(after, before)


@pytest.mark.parametrize("block, shape", [
    pytest.param(None, (100, 6000), id="default"),  # five row blocks at the default size
    *[pytest.param(cells, (23, 11), id=str(cells)) for cells in (7, 30, 50)],
])
def test_pairwise_squares_are_one_whole_array_pass(block_cells, cpus, block, shape):
    # The squares are elementwise and summed in one reduction per run, so
    # they take no row blocks and start no thread, whatever the array's size.
    block_cells(block)
    started = cpus(3)
    pos = values((metaio._BLOCK_CELLS, 0), shape)
    before = pos.copy()
    want = oracles.pairwise_sq(pos)
    for got in (core._pairwise_sq(pos, pos.mean(axis=0)), core.mean_pairwise_sq(pos)):
        assert_same_bits(got, want)
    assert_same_bits(pos, before)
    assert started == []


def test_fewer_than_four_blocks_start_no_thread(block_cells, cpus):
    started = cpus(3)
    pos = values(0, (8, 4))
    rastrigin(np.zeros(4)).eval_many(pos)
    ball(np.zeros(4), 1.0).project_rows(pos)
    core.mean_pairwise_sq(pos)
    block_cells(1)  # one row of one cell per block
    seen = []
    metaio._each_block((3, 1), lambda lo, hi, scratch: seen.append(lo))
    assert seen == [0, 1, 2]
    assert started == []


# ------------------------------------------------------------ thread hygiene


def run_on_a_worker(block_cells, cpus, block):
    """``_each_block`` over four one-row ranges on two threads; ``block(lo,
    hi)`` runs on the worker thread, and the caller waits until the worker
    has taken a range, so at least one range is the worker's."""
    block_cells(1)
    cpus(3)
    taken = threading.Event()

    def body(lo, hi, scratch):
        if threading.current_thread() is threading.main_thread():
            assert taken.wait(60)
        else:
            taken.set()
            block(lo, hi)

    metaio._each_block((4, 1), body)


def test_every_thread_is_joined_before_return(cpus, block_cells):
    block_cells(1)
    cpus(3)
    done = np.zeros(6)

    def body(lo, hi, scratch):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.05)
        done[lo:hi] = 1.0

    metaio._each_block((6, 1), body)
    assert threading.active_count() == 1
    assert done.all()


def test_each_thread_has_its_own_scratch(cpus, block_cells):
    """Each of the three threads takes one range and waits for the others,
    so all three take part; each keeps its own two arrays for all its ranges."""
    block_cells(1)
    cpus(3)
    together = threading.Barrier(3, timeout=60)
    seen = {}

    def body(lo, hi, a, b):
        name = threading.current_thread().name
        if name not in seen:
            seen[name] = (a, b)
            together.wait()
        assert seen[name][0] is a and seen[name][1] is b

    metaio._each_block((6, 1), body, 2)
    assert len(seen) == 3
    assert threading.main_thread().name in seen
    assert len({a.ctypes.data for pair in seen.values() for a in pair}) == 6


@pytest.mark.parametrize("block, shape, largest, threads", [
    (None, (23, 11), (23, 11), 1),  # one block: the whole array, inline
    (6, (11, 3), (2, 3), 3),  # six blocks of 2 rows, the last of 1
    (30, (13, 2, 5), (3, 2, 5), 2),  # (R, N, d) runs: five blocks of 3 runs, the last of 1
])
@pytest.mark.parametrize("buffers", [1, 2])
def test_scratch_has_the_shape_of_the_largest_block(block_cells, cpus, block, shape, largest,
                                                      threads, buffers):
    block_cells(block)
    cpus(3)
    together = threading.Barrier(threads, timeout=60)
    calls = {}

    def body(lo, hi, *scratch):
        name = threading.current_thread().name
        if name not in calls:
            calls[name] = []
            together.wait()  # every thread takes part
        calls[name].append((lo, hi, [a.shape for a in scratch]))

    metaio._each_block(shape, body, buffers)
    assert len(calls) == threads
    for thread_calls in calls.values():
        assert all(got == [largest] * buffers for _, _, got in thread_calls)
    ranges = sorted((lo, hi) for thread_calls in calls.values() for lo, hi, _ in thread_calls)
    assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
    assert ranges[-1][1] == shape[0]
    assert max(hi - lo for lo, hi in ranges) == largest[0]


@contextlib.contextmanager
def switching_often():
    """A thread switch interval of 1 us, so threads interleave at every chance."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_every_range_runs_once_under_stress(block_cells, cpus, deadline):
    """More threads than cores, a tiny switch interval, many short ranges: a
    range handed out twice or lost shows in the counts."""
    cpus(8)
    block_cells(64)  # one 64-cell row per block
    counts = np.zeros(2000, dtype=np.int64)

    def body(lo, hi, scratch):
        scratch[:] = lo
        counts[lo:hi] += 1
        assert np.all(scratch == lo)

    with switching_often():
        for _ in range(5):
            metaio._each_block((len(counts), 64), body)
    assert np.all(counts == 5)
    assert threading.active_count() == 1


def test_a_call_from_a_shared_range_runs_inline(cpus, block_cells):
    """A kernel a worker calls runs all its blocks on that worker: the worker
    does not see the caller's CPU cap, so it must not start threads."""
    block_cells(1)
    started = cpus(3)
    seen = []

    def inner(lo, hi, scratch):
        seen.append(threading.current_thread().name)

    def body(lo, hi, scratch):
        before = len(seen)
        metaio._each_block((8, 1), inner)
        assert seen[before:] == [threading.current_thread().name] * 8

    metaio._each_block((6, 1), body)
    assert sorted(started) == ["block-1", "block-2"]
    assert len(seen) == 48
    assert not metaio._SHARING.active
    metaio._each_block((8, 1), inner)  # the caller may start threads again
    assert len(started) == 4


def test_decay_run_ranges_keep_their_bits_under_stress(block_cells, cpus, deadline):
    """Eight threads on eight run ranges, a tiny switch interval, and a new
    simplex projector per call, so the threads grow its shared tile of k
    while they project: the statistics must be the one-thread ones."""
    block_cells(64)
    params = CboParams(lam=1.0, sigma=0.7, beta=30.0, h=0.1, n_particles=8, seed=3)
    objective = sphere(np.linspace(0.0, 0.3, 5))

    def stack():
        report = decay_experiment(objective, simplex(5), params, 61, 8, seed=4)
        return report.mean_pairwise_sq, report.mean_consensus_sq

    cpus(1)
    want = stack()
    cpus(8)
    with switching_often():
        for _ in range(5):
            for got, expected in zip(stack(), want):
                assert_same_bits(got, expected)
    assert threading.active_count() == 1


def test_a_worker_exception_reaches_the_caller(cpus, block_cells):
    def block(lo, hi):
        raise KeyError(f"block {lo}")

    with pytest.raises(KeyError, match="block"):
        run_on_a_worker(block_cells, cpus, block)
    assert threading.active_count() == 1


def test_a_caller_exception_is_raised_once_the_workers_are_joined(cpus, block_cells):
    block_cells(1)
    cpus(3)

    def body(lo, hi, scratch):
        if threading.current_thread() is threading.main_thread():
            raise KeyError(f"block {lo}")
        time.sleep(0.01)

    with pytest.raises(KeyError, match="block"):
        metaio._each_block((6, 1), body)
    assert threading.active_count() == 1


def test_workers_run_under_the_callers_error_state(cpus, block_cells):
    big = np.full(3, 1e300)

    def block(lo, hi):
        np.multiply(big, big)

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            run_on_a_worker(block_cells, cpus, block)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            run_on_a_worker(block_cells, cpus, block)
    assert threading.active_count() == 1


def test_a_kernel_raises_under_the_callers_error_state(block_cells, cpus):
    block_cells(8)
    started = cpus(3)
    rows = np.full((12, 4), 1e200)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            sphere(np.zeros(4)).eval_many(rows)
    assert started
    assert threading.active_count() == 1


# ---------------------------------------------------------------- finiteness


@pytest.mark.parametrize("arr", [
    np.zeros((0, 3)),
    np.array([]),
    np.ones((4, 3)),
    np.array([[1.0, np.nan], [2.0, 3.0]]),
    np.array([[1.0, np.inf], [2.0, 3.0]]),
    np.array([[1.0, -np.inf], [2.0, 3.0]]),
    np.array([[np.inf, -np.inf], [2.0, 3.0]]),
    np.array([[np.nan, np.inf, -np.inf]]),
    np.full((3, 4), 1e308),
    np.full((3, 4), -1e308),
    np.array([[1e308, 1e308, np.nan]]),
    np.full((2, 3, 4), 1e308),
], ids=lambda a: repr(a.tolist())[:40])
def test_all_finite_matches_the_full_test(arr):
    want = bool(np.all(np.isfinite(arr)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert metaio._all_finite(arr) is want
        with np.errstate(all="raise"):
            assert metaio._all_finite(arr) is want


def test_an_overflowing_ensemble_is_still_finite():
    pos = np.full((3, 2), 1e308)
    with np.errstate(all="raise"):
        assert Ensemble(pos, np.zeros(3)).positions is not None
    with pytest.raises(NumericDomainError, match="finite"):
        Ensemble(np.array([[np.inf, 0.0], [-np.inf, 0.0]]), np.zeros(2))


# ------------------------------------------------------------ forked writers


def test_trace_writer_still_forks_after_a_threaded_run(monkeypatch, tmp_path, block_cells, cpus,
                                                        cap):
    block_cells(20)
    monkeypatch.setattr(metaio, "_PIECE_CELLS", 64)
    started = cpus(3)
    result = run_of("ball", NoiseMode.COMMON)
    assert started
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    cap(1)
    write_trace_csv(result.trace, tmp_path / "one.csv")
    assert forks == []
    cap(3)
    write_trace_csv(result.trace, tmp_path / "three.csv")
    assert len(forks) == 2
    assert (tmp_path / "three.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
