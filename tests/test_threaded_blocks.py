"""Row-blocked kernels give the same bits on any number of threads.

``metaio._each_block`` runs a kernel's row blocks on up to one thread per
usable CPU.  These tests report three usable CPUs and shrink ``_BLOCK_CELLS`` so the
threaded path runs on any host, then pin every moved kernel to its serial
(one CPU) result and to the whole-array expression it replaced, check a
whole ``run``, and check what the threads must leave behind: no live thread,
the caller's numpy error state honoured, worker exceptions re-raised, and the
forked CSV formatters still forking.
"""

import math
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from cbopt import core, metaio
from cbopt.core import CboParams, Ensemble, NoiseMode, predictor_step, run
from cbopt.core import write_trace_csv
from cbopt.diagnostics import decay_experiment
from cbopt.errors import ConfigurationError, NumericDomainError
from cbopt.objectives import rastrigin, sphere
from cbopt.projections import ball, box, simplex

CELLS = (7, 30, 50)  # each cuts every shape used here into four blocks or more


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(bits(got), bits(want))


def values(seed, shape) -> np.ndarray:
    """Normal draws on mixed scales, with signed zeros and exact integers."""
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    flat = out.reshape(-1)
    flat[::7] = -0.0
    flat[3::11] = np.round(flat[3::11])
    return out


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` makes ``metaio.usable_cpus()`` report k CPUs."""

    def set_cpus(k: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: k)
        assert metaio.usable_cpus() == k

    return set_cpus


@pytest.fixture
def started(monkeypatch):
    """Count the threads started, so a test can tell the threaded path ran."""
    calls = []
    real_start = threading.Thread.start

    def counting_start(self):
        calls.append(self.name)
        return real_start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return calls


@pytest.fixture(params=CELLS)
def cells(request, monkeypatch):
    monkeypatch.setattr(metaio, "_BLOCK_CELLS", request.param)
    return request.param


def serial_and_threaded(cpus, started, kernel):
    """``kernel()`` on one CPU and on three; the threaded call must start a
    thread and leave none running."""
    cpus(1)
    serial = kernel()
    assert started == []
    cpus(3)
    threaded = kernel()
    assert started
    assert threading.active_count() == 1
    return serial, threaded


# ---------------------------------------------------- pre-change expressions


def predictor_reference(ensemble, consensus, params, eta):
    dev = ensemble.positions - consensus[..., None, :]
    eta = eta if params.noise_mode is NoiseMode.INDEPENDENT else eta[..., None, :]
    return (
        ensemble.positions
        - (params.lam * params.h) * dev
        + (params.sigma * math.sqrt(params.h)) * dev * eta
    )


def ball_reference(projector, vs):
    dev = vs - projector.center
    dist = np.sqrt((dev * dev).sum(axis=1))
    scale = np.ones_like(dist)
    np.divide(projector.radius, dist, out=scale, where=dist > projector.radius)
    return projector.center + dev * scale[:, None]


def sphere_reference(c, rows):
    dev = rows - c
    return (dev * dev).sum(axis=1)


def rastrigin_reference(s, scale, rows):
    z = (rows - s) / scale
    return (z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0).sum(axis=1)


def norms_reference(positions, cons, noise_values):
    dev = positions - cons
    dist = np.sqrt((dev * dev).sum(axis=1))
    term = dev * noise_values
    return dist, np.sqrt((term * term).sum(axis=1))


def pairwise_reference(pos, com):
    dev = pos - com
    sq = (dev * dev).reshape(pos.shape[:-2] + (-1,)).sum(axis=-1)
    return 2.0 * sq / (pos.shape[-2] - 1)


# ------------------------------------------------------------------- kernels


def test_predictor_step_writes_into_out(cpus, started):
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


@pytest.mark.parametrize("mode", list(NoiseMode))
@pytest.mark.parametrize("lead", [(), (5,)])
def test_predictor_step(cells, cpus, started, mode, lead):
    n, d = 9, 25
    params = CboParams(lam=1.3, sigma=0.7, beta=1.0, h=0.05, n_particles=n, noise_mode=mode)
    ens = Ensemble(values((cells, 0), lead + (n, d)), np.zeros(lead + (n,)))
    cons = values((cells, 1), lead + (d,))
    eta = values((cells, 2), lead + ((d,) if mode is NoiseMode.COMMON else (n, d)))
    copies = [a.copy() for a in (ens.positions, cons, eta)]
    serial, threaded = serial_and_threaded(
        cpus, started, lambda: predictor_step(ens, cons, params, eta))
    assert_same_bits(threaded, serial)
    assert_same_bits(threaded, predictor_reference(ens, cons, params, eta))
    for before, after in zip(copies, (ens.positions, cons, eta)):
        assert_same_bits(after, before)


def test_ball_projection(cells, cpus, started):
    vs = values((cells, 0), (23, 11))
    proj = ball(values((cells, 1), (11,)), 3.0)
    vs[::3] = proj.center  # rows at the center: distance 0, scale 1
    before = vs.copy()
    serial, threaded = serial_and_threaded(cpus, started, lambda: proj.project_rows(vs))
    assert_same_bits(threaded, serial)
    assert_same_bits(threaded, ball_reference(proj, vs))
    assert_same_bits(vs, before)


def test_sphere_and_rastrigin_batches(cells, cpus, started):
    rows = values((cells, 0), (23, 11))
    c = values((cells, 1), (11,))
    before = rows.copy()
    for objective, reference in [
        (sphere(c), lambda: sphere_reference(c, rows)),
        (rastrigin(c, 1.7), lambda: rastrigin_reference(c, 1.7, rows)),
    ]:
        started.clear()
        serial, threaded = serial_and_threaded(cpus, started, lambda: objective.eval_many(rows))
        assert_same_bits(threaded, serial)
        assert_same_bits(threaded, reference())
    assert_same_bits(rows, before)


@pytest.mark.parametrize("mode", list(NoiseMode))
def test_run_norms(cells, cpus, started, mode):
    n, d = 23, 11
    pos = values((cells, 0), (n, d))
    cons = values((cells, 1), (d,))
    eta = values((cells, 2), (d,) if mode is NoiseMode.COMMON else (n, d))
    copies = [a.copy() for a in (pos, cons, eta)]
    serial, threaded = serial_and_threaded(
        cpus, started, lambda: (np.sqrt(metaio._row_sq(pos, cons)),
                                np.sqrt(metaio._row_sq(pos, cons, eta))))
    want = norms_reference(pos, cons, eta)
    for s, t, w in zip(serial, threaded, want):
        assert_same_bits(t, s)
        assert_same_bits(t, w)
    for before, after in zip(copies, (pos, cons, eta)):
        assert_same_bits(after, before)


@pytest.mark.parametrize("block", [7, 64, None])  # None: the default _BLOCK_CELLS
@pytest.mark.parametrize("tail", [(11,), (3, 5)])  # (m, d) rows, or (R, N, d) runs
@pytest.mark.parametrize("eta_shape", ["none", "row", "full"])
def test_row_sq(monkeypatch, cpus, started, block, tail, eta_shape):
    if block is not None:
        monkeypatch.setattr(metaio, "_BLOCK_CELLS", block)
    cells, d = metaio._BLOCK_CELLS, tail[-1]
    shape = (5 * max(1, cells // math.prod(tail)), *tail)  # five row blocks
    rows = values((cells, 0), shape)
    center = values((cells, 1), (d,) if len(shape) == 2 else (shape[0], 1, d))
    eta = {"none": None, "row": values((cells, 2), (d,)), "full": values((cells, 2), shape)}
    eta = eta[eta_shape]
    operands = [a for a in (rows, center, eta) if a is not None]
    copies = [a.copy() for a in operands]
    serial, threaded = serial_and_threaded(
        cpus, started, lambda: metaio._row_sq(rows, center, eta))
    t = rows - center if eta is None else (rows - center) * eta
    want = (t * t).sum(axis=-1)
    assert_same_bits(serial, want)
    assert_same_bits(threaded, want)
    for before, after in zip(copies, operands):
        assert_same_bits(after, before)


@pytest.mark.parametrize("block, shape", [
    pytest.param(None, (100, 6000), id="default"),  # five row blocks at the default size
    *[pytest.param(cells, (23, 11), id=str(cells)) for cells in CELLS],
])
def test_pairwise_squares_are_one_whole_array_pass(monkeypatch, cpus, started, block, shape):
    # The squares are elementwise and summed in one reduction per run, so
    # they take no row blocks and start no thread, whatever the array's size.
    if block is not None:
        monkeypatch.setattr(metaio, "_BLOCK_CELLS", block)
    cpus(3)
    pos = values((metaio._BLOCK_CELLS, 0), shape)
    com = pos.mean(axis=0)
    before = pos.copy()
    want = pairwise_reference(pos, com)
    for got in (core._pairwise_sq(pos, com), core.mean_pairwise_sq(pos)):
        assert_same_bits(got, want)
    assert_same_bits(pos, before)
    assert started == []


def test_fewer_than_four_blocks_start_no_thread(monkeypatch, cpus, started):
    cpus(3)
    pos = values(0, (8, 4))
    rastrigin(np.zeros(4)).eval_many(pos)
    ball(np.zeros(4), 1.0).project_rows(pos)
    core.mean_pairwise_sq(pos)
    monkeypatch.setattr(metaio, "_BLOCK_CELLS", 1)  # one row of one cell per block
    seen = []
    metaio._each_block((3, 1), lambda lo, hi, scratch: seen.append(lo))
    assert seen == [0, 1, 2]
    assert started == []


# ----------------------------------------------------------------- whole run


def run_fields(result):
    """Every field of every trace record and of the result, as arrays."""
    out = []
    for r in result.trace:
        out += [r.iteration, r.consensus, r.dispersion, r.residual, r.best_value,
                r.center_of_mass, r.a_n, r.b_n, math.nan if r.err_ref is None else r.err_ref]
    ens = result.ensemble
    out += [ens.positions, ens.objective_values, ens.iteration, result.point,
            result.best_point, result.best_value, len(result.trace)]
    return out


def multi_block_run(family, mode):
    d, n = 9, 11
    projector = {
        "simplex": simplex(d),
        "box": box(np.full(d, -0.5), np.full(d, 2.0)),
        "ball": ball(np.full(d, 0.25), 0.8),
    }[family]
    objective = rastrigin(np.linspace(0.0, 0.3, d), 0.7) if family != "simplex" \
        else sphere(np.linspace(0.2, 0.0, d))
    params = CboParams(lam=1.0, sigma=0.8, beta=30.0, h=0.1, n_particles=n, noise_mode=mode,
                       seed=5, max_iters=25, residual_tol=0.0)
    return run(objective, projector, params, thin=3)


@pytest.mark.parametrize("family", ["simplex", "box", "ball"])
@pytest.mark.parametrize("mode", list(NoiseMode))
def test_run_does_not_depend_on_the_thread_count(monkeypatch, cpus, started, family, mode):
    monkeypatch.setattr(metaio, "_BLOCK_CELLS", 20)
    serial, threaded = serial_and_threaded(cpus, started, lambda: multi_block_run(family, mode))
    want, got = run_fields(serial), run_fields(threaded)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_bits(g, w)


# ------------------------------------------------------------ thread hygiene


@pytest.fixture
def one_row_blocks(monkeypatch):
    """Blocks of one cell, so ``_each_block((k, 1), ...)`` hands out k
    one-row ranges."""
    monkeypatch.setattr(metaio, "_BLOCK_CELLS", 1)


def run_on_a_worker(cpus, block):
    """``_each_block`` over four ranges on two threads; ``block(lo, hi)``
    runs on the worker thread, and the caller waits until the worker has
    taken a range, so at least one range is the worker's."""
    cpus(3)
    taken = threading.Event()

    def body(lo, hi, scratch):
        if threading.current_thread() is threading.main_thread():
            assert taken.wait(60)
        else:
            taken.set()
            block(lo, hi)

    metaio._each_block((4, 1), body)


def test_every_thread_is_joined_before_return(cpus, one_row_blocks):
    cpus(3)
    done = np.zeros(6)

    def body(lo, hi, scratch):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.05)
        done[lo:hi] = 1.0

    metaio._each_block((6, 1), body)
    assert threading.active_count() == 1
    assert done.all()


def test_each_thread_has_its_own_scratch(cpus, one_row_blocks):
    """Each of the three threads takes one range and waits for the others,
    so all three take part; each keeps its own two arrays for all its ranges."""
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
def test_scratch_has_the_shape_of_the_largest_block(monkeypatch, cpus, block, shape, largest,
                                                      threads, buffers):
    if block is not None:
        monkeypatch.setattr(metaio, "_BLOCK_CELLS", block)
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


def test_every_range_runs_once_under_stress(monkeypatch, cpus):
    """More threads than cores, a tiny switch interval, many short ranges: a
    range handed out twice or lost shows in the counts."""
    cpus(8)
    monkeypatch.setattr(metaio, "_BLOCK_CELLS", 64)  # one 64-cell row per block
    counts = np.zeros(2000, dtype=np.int64)

    def body(lo, hi, scratch):
        scratch[:] = lo
        counts[lo:hi] += 1
        assert np.all(scratch == lo)

    def expire(signum, frame):
        raise TimeoutError("the threads did not finish within 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            metaio._each_block((len(counts), 64), body)
    finally:
        sys.setswitchinterval(interval)
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert np.all(counts == 5)
    assert threading.active_count() == 1


def test_a_call_from_a_shared_range_runs_inline(cpus, one_row_blocks, started):
    """A kernel a worker calls runs all its blocks on that worker: the worker
    does not see the caller's CPU cap, so it must not start threads."""
    cpus(3)
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


def test_decay_run_ranges_keep_their_bits_under_stress(monkeypatch, cpus):
    """Eight threads on eight run ranges, a tiny switch interval, and a new
    simplex projector per call, so the threads grow its shared tile of k
    while they project: the statistics must be the one-thread ones."""
    monkeypatch.setattr(metaio, "_BLOCK_CELLS", 64)
    params = CboParams(lam=1.0, sigma=0.7, beta=30.0, h=0.1, n_particles=8, seed=3)
    objective = sphere(np.linspace(0.0, 0.3, 5))

    def stack():
        report = decay_experiment(objective, simplex(5), params, 61, 8, seed=4)
        return report.mean_pairwise_sq, report.mean_consensus_sq

    cpus(1)
    want = stack()

    def expire(signum, frame):
        raise TimeoutError("the threads did not finish within 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        cpus(8)
        for _ in range(5):
            for got, expected in zip(stack(), want):
                assert_same_bits(got, expected)
    finally:
        sys.setswitchinterval(interval)
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert threading.active_count() == 1


def test_a_worker_exception_reaches_the_caller(cpus, one_row_blocks):
    def block(lo, hi):
        raise KeyError(f"block {lo}")

    with pytest.raises(KeyError, match="block"):
        run_on_a_worker(cpus, block)
    assert threading.active_count() == 1


def test_a_caller_exception_is_raised_once_the_workers_are_joined(cpus, one_row_blocks):
    cpus(3)

    def body(lo, hi, scratch):
        if threading.current_thread() is threading.main_thread():
            raise KeyError(f"block {lo}")
        time.sleep(0.01)

    with pytest.raises(KeyError, match="block"):
        metaio._each_block((6, 1), body)
    assert threading.active_count() == 1


def test_workers_run_under_the_callers_error_state(cpus, one_row_blocks):
    big = np.full(3, 1e300)

    def block(lo, hi):
        np.multiply(big, big)

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            run_on_a_worker(cpus, block)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            run_on_a_worker(cpus, block)
    assert threading.active_count() == 1


def test_a_kernel_raises_under_the_callers_error_state(monkeypatch, cpus, started):
    monkeypatch.setattr(metaio, "_BLOCK_CELLS", 8)
    cpus(3)
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


def test_trace_writer_still_forks_after_a_threaded_run(monkeypatch, tmp_path, cpus, cap, started):
    monkeypatch.setattr(metaio, "_BLOCK_CELLS", 20)
    monkeypatch.setattr(metaio, "_PIECE_CELLS", 64)
    cpus(3)
    result = multi_block_run("ball", NoiseMode.COMMON)
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
