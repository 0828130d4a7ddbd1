"""Workload child: runs one workload's CLI stages in this interpreter.

Started by ``run.py`` as a fresh interpreter with ``PYTHONPATH`` pointing at
the checkout's ``src`` and BLAS pinned to one thread.  It generates the
workload's inputs from the seed, then repeats the workload's stages through
``cbopt.cli.main(argv)`` one after another (a closed loop with one client)
until the time budget is spent, checking every output and hashing every
artifact.  With ``--trace 1`` it alternates plain and traced passes, so the
tracing overhead is measured in the same process.  The result goes to the
JSON file named by ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PER_PASS = 2
# Stop starting passes after this long, whatever --seconds says, so the
# benchmark always exits within its time limit.
HARD_STOP_S = 110.0

PORTFOLIO_SOLVES = 10
FRONTIER_SAMPLES = 100_000
HIGHDIM_DIM = 10_000
HIGHDIM_ITERS = 20
DECAY_REFERENCE_POINTS = 176_851  # simplex lattice for d=4 at step 0.01
SIMPLEX_DIAMETER = math.sqrt(2.0)
SETTLED_TOL = 1e-6  # the run stops at residual 1e-8, so its center of mass has stopped


@dataclass
class Stage:
    """One CLI call: its timing group, argv, output directory and checks."""

    group: str
    argv: list[str]
    out: Path
    check: Callable[[Path], list[str]] | None = None  # returns failure messages


@dataclass
class Op:
    seconds: float
    failures: list[str] = field(default_factory=list)


def read_kv(path: Path) -> dict[str, str]:
    """``key=value`` lines, read here rather than with cbopt's own parser so
    the checks do not rely on the code they check."""
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split()]


# ------------------------------------------------------------------ checks


def check_simplex_result(out: Path) -> list[str]:
    weights = floats(read_kv(out / "result.txt")["weights"])
    fails = []
    if min(weights) < 0:
        fails.append(f"{out.name}: negative weight {min(weights)!r}")
    if abs(math.fsum(weights) - 1.0) > 1e-9:
        fails.append(f"{out.name}: weights sum to {math.fsum(weights)!r}")
    return fails


def check_frontier(out: Path) -> list[str]:
    with open(out / "frontier.csv", "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    if lines != FRONTIER_SAMPLES + 1:
        return [f"frontier.csv has {lines} lines, expected {FRONTIER_SAMPLES + 1}"]
    return []


def check_pairwise(out: Path) -> list[str]:
    summary = read_kv(out / "diagnose_summary.txt")
    if summary.get("decay_pairwise_within_bound") != "true":
        return ["decay_pairwise_within_bound is not true"]
    return []


def check_highdim(out: Path) -> list[str]:
    result = read_kv(out / "result.txt")
    norm = math.sqrt(math.fsum(w * w for w in floats(result["weights"])))
    fails = []
    if norm > 1.0 + 1e-9:
        fails.append(f"returned point has norm {norm!r} > 1")
    if int(result["iterations"]) != HIGHDIM_ITERS:
        fails.append(f"iterations={result['iterations']}, expected the cap {HIGHDIM_ITERS}")
    return fails


def error_trace_rows(out: Path) -> list[tuple[int, float]]:
    rows = (out / "diag_error_trace.csv").read_text().split()[1:]
    return [(int(it), float(err)) for it, err in (row.split(",") for row in rows)]


def err_ref_column(out: Path) -> list[float]:
    return [err for _it, err in error_trace_rows(out)]


def check_decay(out: Path) -> list[str]:
    """Checks the error-trace run on what the solver guarantees: it reaches
    consensus before the iteration cap, so its center of mass settles, and
    both that point and the reference lie on the simplex.  Whether the
    consensus lands nearer the grid optimum than the initial center of mass
    is not guaranteed with N = 8 (about 1 seed in 60 ends farther), so it is
    not checked; the final distance is reported as ``quality.ref_error``."""
    fails = check_pairwise(out)
    meta = read_kv(out / "diagnose_meta.txt")
    if meta.get("reference_points") != str(DECAY_REFERENCE_POINTS):
        fails.append(f"reference_points={meta.get('reference_points')}")
    rows = error_trace_rows(out)
    errs = [err for _it, err in rows]
    if not all(0.0 <= err <= SIMPLEX_DIAMETER for err in errs):
        fails.append(f"err_ref outside [0, sqrt(2)]: {min(errs)!r}..{max(errs)!r}")
    if not rows[-1][0] < int(meta["max_iters"]):
        fails.append(f"error-trace run hit the iteration cap {meta['max_iters']}")
    if len(errs) < 2 or abs(errs[-1] - errs[-2]) > SETTLED_TOL:
        fails.append(f"err_ref has not settled: last two {errs[-2:]!r}")
    return fails


# --------------------------------------------------------------- workloads


class Workload:
    """Inputs made once from the seed, and the stages of one pass."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.inputs = work / "inputs"
        self.out = work / "out"

    def prepare(self) -> list[Stage]:
        """Untimed CLI calls that generate the inputs."""
        return []

    def stages(self) -> list[Stage]:
        raise NotImplementedError

    def quality(self) -> dict[str, float]:
        raise NotImplementedError


class Portfolio(Workload):
    def stages(self):
        s, prices, data = self.seed, self.out / "prices", self.out / "stats"
        stats = str(data / "stats.txt")
        out = [
            Stage("data", ["synth", "--assets", "20", "--rows", "5000", "--seed", str(s),
                           "--out", str(prices)], prices),
            Stage("data", ["ingest", str(prices / "prices.csv"), "--out", str(data)], data),
        ]
        for k in range(PORTFOLIO_SOLVES):
            d = self.out / f"solve{k}"
            out.append(Stage("solve", ["solve", "--stats", stats, "--seed", str(s + k),
                                       "--out", str(d)], d, check_simplex_result))
        d = self.out / "frontier"
        out.append(Stage("frontier", ["frontier", "--stats", stats, "--samples",
                                      str(FRONTIER_SAMPLES), "--svg", "--seed", str(s),
                                      "--out", str(d)], d, check_frontier))
        d = self.out / "diagnose"
        out.append(Stage("diagnose", ["diagnose", "--stats", stats, "--runs", "100",
                                      "--horizon", "50", "--seed", str(s), "--out", str(d)],
                         d, check_pairwise))
        return out

    def quality(self):
        sharpes = [float(read_kv(self.out / f"solve{k}" / "result.txt")["sharpe"])
                   for k in range(PORTFOLIO_SOLVES)]
        return {"sharpe_mean": math.fsum(sharpes) / len(sharpes)}


class Highdim(Workload):
    def prepare(self):
        self.inputs.mkdir(parents=True, exist_ok=True)
        origin = " ".join(["0"] * HIGHDIM_DIM)
        (self.inputs / "highdim.cfg").write_text(f"projector=ball:{origin},1\n")
        return []

    def stages(self):
        d = self.out / "solve"
        return [Stage("solve", ["solve", "--objective", "rastrigin", "--dim", str(HIGHDIM_DIM),
                                "--config", str(self.inputs / "highdim.cfg"),
                                "--particles", "100", "--max-iters", str(HIGHDIM_ITERS),
                                "--seed", str(self.seed), "--out", str(d)], d, check_highdim)]

    def quality(self):
        return {"objective_value": float(read_kv(self.out / "solve" / "result.txt")["value"])}


class Decay(Workload):
    def prepare(self):
        inp = self.inputs
        return [
            Stage("prepare", ["synth", "--assets", "4", "--rows", "500", "--seed",
                              str(self.seed), "--out", str(inp)], inp),
            Stage("prepare", ["ingest", str(inp / "prices.csv"), "--out", str(inp)], inp),
        ]

    def stages(self):
        d = self.out / "diagnose"
        return [Stage("diagnose", ["diagnose", "--stats", str(self.inputs / "stats.txt"),
                                   "--particles", "8", "--runs", "200", "--horizon", "100",
                                   "--workers", "2", "--seed", str(self.seed),
                                   "--out", str(d)], d, check_decay)]

    def quality(self):
        return {"ref_error": err_ref_column(self.out / "diagnose")[-1]}


WORKLOADS = {"portfolio": Portfolio, "highdim": Highdim, "decay": Decay}
STAGE_GROUPS = ("data", "solve", "frontier", "diagnose")
QUALITY = {"sharpe_mean": "portfolio", "objective_value": "highdim", "ref_error": "decay"}


# ------------------------------------------------------------------ passes


def call(cli, stage: Stage, devnull) -> Op:
    """Run one CLI call, timed, then its output checks (untimed)."""
    name = stage.argv[0]
    failures = []
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(devnull):
            rc = cli.main(stage.argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # the benchmark keeps going and counts the failure
        traceback.print_exc()
        rc = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if rc != 0:
        failures.append(f"{name}: exit {rc!r}")
    elif stage.check is not None:
        try:
            failures += stage.check(stage.out)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            failures.append(f"{name}: unreadable output: {type(exc).__name__}: {exc}")
    return Op(seconds, failures)


def digests(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        out[path.relative_to(root).as_posix()] = h.hexdigest()
    return out


class HostProbe:
    """Fixed work timed next to every measured call, as a host-speed gauge.

    On a shared 2-core KVM guest the same pass ran up to 1.8x slower from
    one minute to the next, with CPU time tracking wall time, so the host,
    not the program, set the pace.  A probe of interpreter, small-array,
    large-array and float-formatting work is timed right before and right
    after each call and each import sample.  An interval's reference-speed
    time is its measured time times ``REF_S`` over the mean of the two probes
    around it.  The probe's buffers are allocated once, so the program's
    heap cannot change its cost.
    """

    REF_S = 0.025  # one reference second: about the probe's time on a quiet host

    def __init__(self):
        import numpy as np

        self._np = np
        self._rows = np.linspace(-1.0, 1.0, 2000).reshape(100, 20)
        self._rows_sq = np.empty_like(self._rows)
        self._big = np.linspace(0.0, 1.0, 1_000_000)
        self._big_out = np.empty_like(self._big)

    def __call__(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        acc = 0
        for i in range(80_000):
            acc += i * i
        for _ in range(600):
            np.multiply(self._rows, self._rows, out=self._rows_sq)
            self._rows_sq.sum(axis=1).max()
        for _ in range(5):
            np.multiply(self._big, 1.0001, out=self._big_out)
            self._big_out.sum()
        for _ in range(4):
            ",".join(repr(float(x)) for x in self._rows.ravel())
        return time.perf_counter() - t0

    def scale(self, before: float, after: float) -> float:
        return self.REF_S / ((before + after) / 2)


def run_pass(cli, workload: Workload, devnull, probe: HostProbe):
    """One pass over the workload's stages; returns the ops, the stages, each
    call's reference-speed seconds and the probes around the calls."""
    shutil.rmtree(workload.out, ignore_errors=True)
    stages = workload.stages()
    for st in stages:
        st.out.mkdir(parents=True, exist_ok=True)
    ops, probes = [], [probe()]
    for st in stages:
        ops.append(call(cli, st, devnull))
        probes.append(probe())
    ref = [op.seconds * probe.scale(a, b) for op, a, b in zip(ops, probes, probes[1:])]
    return ops, stages, ref, probes


def compare_digests(ref: dict, now: dict, ops: list[Op], stages: list[Stage], root: Path):
    """Mark the call that owns a changed, missing or extra artifact as failed."""
    for rel in sorted(set(ref) | set(now)):
        if ref.get(rel) == now.get(rel):
            continue
        path = root / rel
        owner = next((op for op, st in zip(ops, stages) if path.is_relative_to(st.out)), ops[-1])
        owner.failures.append(f"artifact {rel} differs from the first pass")


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_facts() -> dict:
    """What to know about the host before trusting a single run."""
    import numpy as np

    model = next((line.split(":", 1)[1].strip() for line in (_read("/proc/cpuinfo") or "").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    facts["blas_threads_env"] = {
        k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return facts


def import_seconds(probe: HostProbe) -> tuple[float, float]:
    """Measured and reference-speed seconds from starting a fresh interpreter
    to ``import cbopt.cli`` done.

    CLOCK_MONOTONIC is system-wide on Linux, so the child's reading after
    the import and ours before the start share one time base.
    """
    code = "import cbopt.cli, time; print(repr(time.monotonic()))"
    before = probe()
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    seconds = float(proc.stdout.split()[-1]) - t0
    return seconds, seconds * probe.scale(before, probe())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    import cbopt
    import cbopt.cli as cli

    if not Path(cbopt.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"cbopt imported from {cbopt.__file__}, not from {args.src}", file=sys.stderr)
        return 2

    loadavg_at_start = os.getloadavg()
    workload = WORKLOADS[args.workload](args.seed, args.work)
    probe = HostProbe()
    ops: list[Op] = []
    with open(os.devnull, "w") as devnull:
        for st in workload.prepare():
            st.out.mkdir(parents=True, exist_ok=True)
            ops.append(call(cli, st, devnull))

        tracer = None
        if args.trace:
            from layers import EXACT, layer_metrics
            from tracer import Tracer

            tracer = Tracer()

        passes = []
        setup = []
        ref_digests = None
        if not tracer:
            import_seconds(probe)  # compiles bytecode on a fresh checkout; users pay that once
        start = time.perf_counter()
        while True:
            traced = bool(tracer) and len(passes) % 2 == 1
            if traced:
                tracer.install()
            try:
                pass_ops, stages, ref, probes = run_pass(cli, workload, devnull, probe)
            finally:
                if traced:
                    tracer.uninstall()
            record = {
                "traced": traced,
                "stages": {g: math.fsum(t for t, st in zip(ref, stages) if st.group == g)
                           for g in STAGE_GROUPS},
                "wall_s": math.fsum(ref),
                "raw_wall_s": math.fsum(op.seconds for op in pass_ops),
                "calls_s": [op.seconds for op in pass_ops],
                "probes_s": probes,
            }
            if traced:
                table = tracer.take()
                record["layers"], record["missing"] = layer_metrics(table, args.workload)
                record["calls"] = table.call_counts()
            now = digests(workload.out)
            if ref_digests is None:
                ref_digests = now
                if not any(op.failures for op in pass_ops):
                    record["quality"] = workload.quality()
            else:
                compare_digests(ref_digests, now, pass_ops, stages, workload.out)
            ops += pass_ops
            passes.append(record)
            if not tracer:
                # Spread over the run like the passes, so both see the same host.
                setup += [import_seconds(probe) for _ in range(SETUP_PER_PASS)]

            elapsed = time.perf_counter() - start
            if tracer is None:
                enough = len(passes) >= MIN_PASSES
            else:  # as many traced passes as plain ones
                enough = traced and len(passes) >= 2 * MIN_TRACED_PASSES
            if elapsed > HARD_STOP_S or (enough and elapsed + record["raw_wall_s"] > args.seconds):
                break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": {**machine_facts(), "loadavg_at_start": loadavg_at_start},
        "attempted": len(ops),
        "failed": sum(bool(op.failures) for op in ops),
        "failures": [f for op in ops for f in op.failures],
        "passes": passes,
        "setup_s": [ref for _raw, ref in setup],
        "raw_setup_s": [raw for raw, _ref in setup],
        "digests": ref_digests,
        "quality": passes[0].get("quality", {}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        traced_passes = [p for p in passes if p["traced"]]
        first = traced_passes[0]["layers"]
        differ = sorted({k for p in traced_passes for k in EXACT if p["layers"].get(k) != first.get(k)})
        if any(p["calls"] != traced_passes[0]["calls"] for p in traced_passes):
            differ.append("calls per span")
        if differ:
            result["failed"] += 1
            result["failures"].append(f"work counts differ between traced passes: {differ}")
        result["missing"] = sorted({m for p in traced_passes for m in p["missing"]})
    args.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
