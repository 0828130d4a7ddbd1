"""cbopt benchmark: end-to-end and per-layer metrics of the CLI pipeline.

Run from the root of a checkout::

    python3 bench/run.py --workload portfolio --seed 7 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``wall_s``,
``peak_rss_mb``); ``--trace 1`` reports the per-layer metrics of a traced
run.  Leaving out ``--workload`` and ``--trace`` runs every workload both
ways.  Every metric is printed by name with its unit, every output is
checked, and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full report
(per-pass times, artifact SHA-256 digests, machine facts) is written to
``bench/results/``.  See ``bench/README.md`` for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

WORKLOADS = ("portfolio", "highdim", "decay")
CHILD_TIMEOUT_S = 165.0

sys.path.insert(0, str(HERE))
from workloads import QUALITY, STAGE_GROUPS  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One BLAS thread, so the only parallelism is the CLI's own --workers pool.
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    work = WORK / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    result = work / "result.json"
    work.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--work", str(work), "--src", str(SRC), "--result", str(result)],
            env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0 or not result.is_file():
            raise RuntimeError(f"workload child exited with {proc.returncode}")
        return json.loads(result.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(res: dict) -> dict:
    """Medians over the run, in reference-speed seconds (see workloads.HostProbe)."""
    plain = [p for p in res["passes"] if not p["traced"]]
    return {
        "setup_s": metric(statistics.median(res["setup_s"]), "s"),
        "wall_s": metric(statistics.median(p["wall_s"] for p in plain), "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }


def per_layer(res: dict) -> dict:
    from layers import EXACT, METRICS

    traced = [p for p in res["passes"] if p["traced"]]
    plain = [p for p in res["passes"] if not p["traced"]]
    out = {}
    for name, unit, *_ in METRICS:
        if name in res["missing"]:
            continue
        values = [p["layers"][name] for p in traced]
        # Work counts agree across traced passes (the child checks that).
        out[name] = metric(values[0] if name in EXACT else statistics.median(values), unit)
    for group in STAGE_GROUPS:
        out[f"stage.{group}_s"] = metric(statistics.median(p["stages"][group] for p in plain), "s")
    for name, workload in QUALITY.items():
        out[f"quality.{name}"] = metric(res["quality"].get(name, 0) if workload == res["workload"] else 0, "value")
    out["trace.overhead_s"] = metric(
        statistics.median(p["wall_s"] for p in traced) - statistics.median(p["wall_s"] for p in plain), "s"
    )
    out["trace.missing"] = metric(len(res["missing"]), "count")
    out["host.probe_ms"] = metric(1e3 * statistics.median(k for p in plain for k in p["probes_s"]), "ms")
    out["host.raw_wall_s"] = metric(statistics.median(p["raw_wall_s"] for p in plain), "s")
    return out


def report(res: dict, metrics: dict) -> None:
    w, t = res["workload"], res["trace"]
    walls = " ".join(f"{p['raw_wall_s']:.3f}{'T' if p['traced'] else ''}" for p in res["passes"])
    print(f"== {w} seed={res['seed']} trace={t}: {len(res['passes'])} passes "
          f"(measured wall s, T = traced: {walls}); {res['attempted']} CLI calls, {res['failed']} failed")
    print("  machine: " + json.dumps(res["machine"]))
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    for name, value in res["quality"].items():
        print(f"  quality {name} = {value!r}")
    for f in res["failures"]:
        print(f"  FAILED: {f}")
    for m in res.get("missing", ()):
        print(f"  MISSING: {m} (no call to its span on a workload that should make one)")
    for rel, digest in (res["digests"] or {}).items():
        print(f"  sha256 {digest} {rel}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cbopt benchmark")
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, required=True, help="workload seed; inputs derive from it")
    ap.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    ap.add_argument("--trace", choices=["0", "1", "all"], default="all")
    args = ap.parse_args(argv)

    if not (SRC / "cbopt" / "__init__.py").is_file():
        print(f"error: no cbopt sources under {SRC}; run from a cbopt checkout", file=sys.stderr)
        return 2
    env = child_env()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace == "all" else (int(args.trace),)
    single = len(workloads) * len(traces) == 1
    attempted = failed = 0
    correct = True
    metrics: dict = {}
    RESULTS.mkdir(exist_ok=True)
    for workload in workloads:
        for trace in traces:
            try:
                res = run_child(workload, args.seed, args.seconds, trace, env)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"error: {workload} trace={trace}: {exc}", file=sys.stderr)
                return 1
            got = per_layer(res) if trace else end_to_end(res)
            report(res, got)
            (RESULTS / f"{workload}-s{args.seed}-t{trace}.json").write_text(
                json.dumps({**res, "metrics": got}, indent=1)
            )
            attempted += res["attempted"]
            failed += res["failed"]
            correct = correct and res["failed"] == 0
            metrics.update(got if single else {f"{workload}.{k}": v for k, v in got.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
