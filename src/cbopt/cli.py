"""Command-line pipeline: synth -> ingest -> solve / frontier / diagnose.

Every command reads an optional flat ``key=value`` config file (``#``
comments allowed); explicit flags override file values, which override
built-in defaults.  The resolved config is echoed into the command's
``*_meta.txt`` artifact.  A config key that no command reads is an error.

``_OPTIONS`` is the one place to add an option: its row gives the config
key, the flag, the caster, the default, the help text and the commands
that read it, and argparse, config parsing and the echo all follow it.
Only the execution-only arguments live outside it: ``--config``,
``--out``, ``--workers`` and ingest's ``prices`` path.  They are never
echoed, so artifacts stay byte-identical across worker counts and output
locations.

All artifacts land inside the ``--out`` directory; nothing is written
anywhere else.  Exit status is 0 on success, 1 on any library error, and
2 on bad command lines (argparse).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import baseline, diagnostics, market, objectives, projections
from .core import CboParams, NoiseMode, init_ensemble, run, write_trace_csv
from .errors import CbOptError, ConfigurationError
from .metaio import (
    _fmt_2f_rows, fmt_float, fmt_vector, format_metadata, parse_metadata, usable_cpus,
    write_metadata,
)


# One row per config key: (key, caster, default, commands that read it, help).
# The flag is --key with "-" for "_".  A tuple caster lists the choices and
# bool is a switch; every other caster is the argparse type.  Row order is
# the order of the ``*_meta.txt`` echo.
_RUN = ("solve", "frontier", "diagnose")
_PROBLEM = ("solve", "diagnose")
_OPTIONS = [
    ("lambda", float, 1.0, _RUN, "drift rate toward consensus"),
    ("sigma", float, 0.5, _RUN, "noise intensity"),
    ("beta", float, 1000.0, _RUN, "consensus concentration parameter"),
    ("h", float, 0.1, _RUN, "Euler step size"),
    ("particles", int, 100, _RUN, "ensemble size"),
    ("max_iters", int, 10_000, _RUN, "iteration cap"),
    ("tol", float, 1e-8, _RUN, "residual stopping tolerance"),
    ("noise", ("common", "independent"), "common", _RUN, "one noise draw per step or per particle"),
    ("seed", int, 0, ("synth", *_RUN), "random seed"),
    ("init_std", float, 1.0, _RUN, "spread of the initial ensemble"),
    ("objective", ("sharpe", "sphere", "rastrigin"), "sharpe", _PROBLEM, "function to minimize"),
    ("stats", str, None, _RUN, "stats file from the ingest command"),
    ("dim", int, None, _PROBLEM, "dimension for non-market objectives"),
    ("projector", str, None, _PROBLEM, "simplex:d | box:lo,hi | ball:center,radius"),
    ("scale", float, 1.0, _PROBLEM, "rastrigin coordinate scale"),
    # ingest stores rf (0 when unset); the other commands override the stats file's.
    ("rf", float, None, ("ingest", *_RUN), "risk-free rate"),
    ("runs", int, 100, ("diagnose",), "independent decay trajectories"),
    ("horizon", int, 50, ("diagnose",), "iterations per trajectory"),
    ("betas", str, "0,1,10,100,1000", ("diagnose",), "comma-separated ascending betas"),
    ("reference", ("auto", "none"), "auto", _PROBLEM, "grid reference on a simplex of d <= 4"),
    ("grid_step", float, 0.01, _PROBLEM, "reference grid spacing"),
    ("thin", int, 1, ("solve",), "trace thinning stride"),
    ("samples", int, 10_000, ("frontier",), "number of sampled portfolios"),
    ("svg", bool, False, ("frontier",), "emit frontier.svg"),
    ("assets", int, 6, ("synth",), "number of assets"),
    ("rows", int, 500, ("synth",), "number of price rows"),
]
# Keys any command reads, so one config file can drive the whole pipeline.
_CONFIG_KEYS = {row[0] for row in _OPTIONS}


def _cast(key: str, raw: str, caster):
    """A config-file value through its row's caster."""
    try:
        if isinstance(caster, tuple):
            if raw not in caster:
                raise ValueError(f"expected one of {', '.join(caster)}")
            return raw
        if caster is bool:
            if raw.lower() not in ("true", "1", "yes", "false", "0", "no"):
                raise ValueError("expected true/false, 1/0 or yes/no")
            return raw.lower() in ("true", "1", "yes")
        return caster(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"config value {key}={raw!r}: {exc}") from exc


def _read_text(path) -> str:
    """A UTF-8 input file's text, less any byte-order mark; a decode failure names the file."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path} is not UTF-8 text: {exc}") from exc


def _resolve(args) -> dict:
    """The command's keys in table order: flags > config file > defaults."""
    from_file: dict[str, str] = {}
    if args.config:
        from_file = parse_metadata(_read_text(args.config))
    unknown = sorted(set(from_file) - _CONFIG_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown config key(s) in {args.config}: {', '.join(unknown)}")
    resolved = {}
    for key, caster, default, readers, _about in _OPTIONS:
        if args.command not in readers:
            continue
        flag = getattr(args, key)
        if flag is not None:
            resolved[key] = flag
        elif key in from_file:
            resolved[key] = _cast(key, from_file[key], caster)
        else:
            resolved[key] = default
    if resolved.get("seed", 0) < 0:  # numpy's seeding would raise a bare ValueError
        raise ConfigurationError("seed must be a nonnegative integer")
    return resolved


def _write_meta(out: Path, command: str, cfg: dict, objective, projector, reference=None):
    """``<command>_meta.txt``: the set keys of the resolved config, then the problem."""
    meta = {"command": command}
    meta.update((key, value) for key, value in cfg.items() if value is not None)
    meta["objective_id"] = objective.descriptor
    meta["projector_id"] = projector.describe()
    if reference is not None:
        meta.update(reference.to_metadata())
    write_metadata(out / f"{command}_meta.txt", meta)


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _derived_seeds(seed: int, n: int) -> list[int]:
    """Stable per-purpose integer seeds derived from the user seed."""
    state = np.random.SeedSequence(seed).generate_state(n, np.uint64)
    return [int(s) for s in state]


def _cbo_params(cfg: dict, seed: int) -> CboParams:
    return CboParams(
        lam=cfg["lambda"],
        sigma=cfg["sigma"],
        beta=cfg["beta"],
        h=cfg["h"],
        n_particles=cfg["particles"],
        noise_mode=NoiseMode(cfg["noise"]),
        seed=seed,
        max_iters=cfg["max_iters"],
        residual_tol=cfg["tol"],
    )


def _load_stats(cfg: dict) -> objectives.MarketStats:
    if not cfg.get("stats"):
        raise ConfigurationError("this objective needs --stats (see the ingest command)")
    stats = market.parse_stats(_read_text(cfg["stats"]))
    if cfg.get("rf") is not None:
        stats = stats.with_rf(cfg["rf"])
    return stats


def _build_problem(cfg: dict):
    """Return (objective, projector, stats-or-None) from a resolved config."""
    kind = cfg["objective"]
    stats = None
    if kind == "sharpe":
        stats = _load_stats(cfg)
        dim = stats.dim
    else:
        dim = cfg.get("dim")
        if dim is None:
            raise ConfigurationError(f"objective {kind!r} needs --dim")
    projector = (
        projections.parse_projector(cfg["projector"])
        if cfg.get("projector")
        else projections.simplex(dim)
    )
    if projector.dim != dim:
        raise ConfigurationError(
            f"projector dimension {projector.dim} does not match problem dimension {dim}"
        )
    anchor = projector.project(np.zeros(dim))
    if kind == "sharpe":
        if isinstance(projector, projections.BoxProjector) and np.all(
            (projector.lo == 0) | (projector.hi == 0)
        ):
            raise ConfigurationError(
                "the box has the zero portfolio as a corner (0 bounds every coordinate); "
                "particles clipped there have zero variance and no Sharpe ratio, so use a "
                "box that excludes 0"
            )
        objective = objectives.neg_sharpe(stats)
    elif kind == "sphere":
        objective = objectives.sphere(anchor)
    elif kind == "rastrigin":
        objective = objectives.rastrigin(anchor, cfg["scale"])
    else:
        raise ConfigurationError(f"unknown objective {kind!r}")
    return objective, projector, stats


def _maybe_reference(cfg, objective, projector):
    if cfg["reference"] == "none":
        return None
    if isinstance(projector, projections.SimplexProjector) and projector.dim <= baseline.MAX_GRID_DIM:
        with np.errstate(all="ignore"):  # the run that follows reports what is not finite
            return baseline.grid_search_simplex(objective, projector.dim, cfg["grid_step"])
    return None


# ----------------------------------------------------------------- commands

def cmd_synth(args) -> int:
    cfg = _resolve(args)
    out = _out_dir(args)
    mu, sigma = market.demo_market(cfg["assets"])
    series = market.synthetic_market(cfg["seed"], cfg["assets"], cfg["rows"], mu, sigma)
    path = out / "prices.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write(market.format_prices(series))
    print(f"synth: wrote {series.n_periods} rows x {series.dim} assets to {path}")
    return 0


def cmd_ingest(args) -> int:
    rf = _resolve(args)["rf"]
    out = _out_dir(args)
    series = market.parse_prices(_read_text(args.prices))
    returns = market.log_returns(series)
    with warnings.catch_warnings(record=True) as caught:  # a short sample warns
        warnings.simplefilter("always")
        stats = market.estimate_stats(returns, rf=0.0 if rf is None else rf)
    for caught_warning in caught:
        print(f"warning: {caught_warning.message}", file=sys.stderr)
    with open(out / "stats.txt", "w", newline="\n") as fh:
        fh.write(market.format_stats(stats))
    print(
        f"ingest: {stats.dim} assets, {series.n_periods} price rows, "
        f"{returns.returns.shape[0]} return rows -> {out / 'stats.txt'}"
    )
    return 0


def cmd_solve(args) -> int:
    cfg = _resolve(args)
    out = _out_dir(args)
    objective, projector, stats = _build_problem(cfg)
    (solve_seed,) = _derived_seeds(cfg["seed"], 1)
    params = _cbo_params(cfg, solve_seed)
    report = diagnostics.check_params(params)
    reference = _maybe_reference(cfg, objective, projector)  # a bad grid fails before the run

    result = run(objective, projector, params, init_std=cfg["init_std"], thin=cfg["thin"])
    if reference is not None:
        errors = diagnostics.error_trace(result.trace, reference)
        diagnostics.write_error_csv(result.trace.iterations(), errors, out / "error_trace.csv")

    write_trace_csv(result.trace, out / "trace.csv", workers=args.workers or usable_cpus())
    _write_meta(out, "solve", cfg, objective, projector, reference)

    final = result.trace.records[-1]
    value = objective(result.point)
    result_items = {
        "weights": result.point,
        "value": value,
        "iterations": final.iteration,
        "residual": final.residual,
        "best_value": result.best_value,
        "best_weights": result.best_point,
    }
    if stats is not None:
        ret, risk, sharpe = objectives.sharpe_components(stats, result.point)
        result_items.update({"ret": ret, "risk": risk, "sharpe": sharpe})
    write_metadata(out / "result.txt", result_items)

    summary = diagnostics.summary_text(report)
    with open(out / "solve_summary.txt", "w", newline="\n") as fh:
        fh.write(summary)

    print(summary, end="")
    print(f"solve: weights=[{fmt_vector(result.point)}] value={fmt_float(value)}")
    print(f"solve: stopped at iteration {final.iteration} residual={fmt_float(final.residual)}")
    return 0


def cmd_frontier(args) -> int:
    cfg = _resolve(args)
    out = _out_dir(args)
    stats = _load_stats(cfg)
    projector = projections.simplex(stats.dim)
    objective = objectives.neg_sharpe(stats)
    cbo_seed, cloud_seed = _derived_seeds(cfg["seed"], 2)

    cloud = market.sample_frontier(stats, cfg["samples"], cloud_seed)
    market.write_frontier_csv(cloud, out / "frontier.csv", workers=args.workers or usable_cpus())

    params = _cbo_params(cfg, cbo_seed)
    result = run(objective, projector, params, init_std=cfg["init_std"])
    ret, risk, sharpe = objectives.sharpe_components(stats, result.point)
    intercept, slope = market.cml(stats.rf, (risk, ret))

    write_metadata(
        out / "tangency.txt", {"weights": result.point, "ret": ret, "risk": risk, "sharpe": sharpe}
    )
    write_metadata(
        out / "cml.txt",
        {"intercept": intercept, "slope": slope, "tangency_risk": risk, "tangency_ret": ret},
    )
    _write_meta(out, "frontier", cfg, objective, projector)

    if cfg["svg"]:
        with open(out / "frontier.svg", "w", newline="\n") as fh:
            fh.writelines(_svg_pieces(cloud, intercept, slope, (risk, ret)))

    print(
        f"frontier: {len(cloud)} samples; tangency sharpe={fmt_float(sharpe)} "
        f"cml slope={fmt_float(slope)} intercept={fmt_float(intercept)}"
    )
    return 0


def cmd_diagnose(args) -> int:
    cfg = _resolve(args)
    betas = _cast(
        "betas",
        cfg["betas"],
        lambda raw: diagnostics.check_betas(float(t) for t in raw.split(",") if t.strip()),
    )
    out = _out_dir(args)
    objective, projector, _stats = _build_problem(cfg)
    decay_seed, laplace_seed, solve_seed = _derived_seeds(cfg["seed"], 3)
    params = _cbo_params(cfg, solve_seed)
    report = diagnostics.check_params(params)
    reference = _maybe_reference(cfg, objective, projector)  # a bad grid fails before any artifact

    decay = diagnostics.decay_experiment(
        objective,
        projector,
        params,
        runs=cfg["runs"],
        horizon=cfg["horizon"],
        seed=decay_seed,
        init_std=cfg["init_std"],
    )
    decay.write_csv(out / "decay.csv")

    ensemble = init_ensemble(
        projector.dim,
        params,
        None,
        cfg["init_std"],
        projector,
        objective,
        seed=laplace_seed,
    )
    points = diagnostics.laplace_sweep(ensemble, betas)
    diagnostics.write_laplace_csv(points, out / "laplace.csv")

    if reference is not None:
        result = run(objective, projector, params, init_std=cfg["init_std"])
        errors = diagnostics.error_trace(result.trace, reference)
        diagnostics.write_error_csv(
            result.trace.iterations(), errors, out / "diag_error_trace.csv"
        )

    summary = diagnostics.summary_text(report) + format_metadata({
        "decay_applicable": decay.applicable,
        "decay_pairwise_within_bound": decay.pairwise_ok.all(),
        "decay_consensus_within_bound": decay.consensus_ok.all(),
        "consensus_bound_indexing": "ensemble_size",
        "laplace_final_gap": points[-1].gap,
    })
    with open(out / "diagnose_summary.txt", "w", newline="\n") as fh:
        fh.write(summary)

    _write_meta(out, "diagnose", cfg, objective, projector, reference)

    print(summary, end="")
    return 0


_SVG_CHUNK = 8192


def _svg_pieces(cloud, intercept, slope, tangency):
    """Minimal self-contained scatter of the sampled cloud plus the CML.

    Pure text, no drawing dependency; coordinates are emitted with ``.2f``
    (the circles' by ``metaio._fmt_2f_rows``).  The text comes in pieces of
    at most ``_SVG_CHUNK`` circles, so a large cloud is never one string.
    """
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

    # Pixel coordinates; elementwise, so one call maps a whole chunk.
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
    circle = b'<circle cx="', b'" cy="', b'" r="1.5" fill="#4477aa" fill-opacity="0.45"/>\n'
    for start in range(0, len(cloud), _SVG_CHUNK):
        part = slice(start, start + _SVG_CHUNK)
        yield _fmt_2f_rows(circle, sx(cloud.risk[part]), sy(cloud.ret[part])).decode("ascii")
    y_at_hi = intercept + slope * x_hi
    # The star is centred on the tangency point as drawn, i.e. rounded.
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


# ------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbopt",
        description="Consensus ensemble optimization pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        ("synth", cmd_synth, "write a synthetic prices CSV"),
        ("ingest", cmd_ingest, "prices CSV -> return stats artifact"),
        ("solve", cmd_solve, "run the consensus solver"),
        ("frontier", cmd_frontier, "sample portfolios and fit the CML"),
        ("diagnose", cmd_diagnose, "parameter checks and decay reports"),
    ]
    for name, func, help_text in commands:
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        # Execution-only: never resolved from a config file or echoed.
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--out", help="output directory (default: current)")
        sp.add_argument(
            "--workers", type=int,
            help="cap on the processes that format trace.csv and frontier.csv "
                 "(default: usable CPUs; 1 never forks)",
        )
        if name == "ingest":
            sp.add_argument("prices", help="path to the prices CSV")
        for key, caster, _default, readers, about in _OPTIONS:
            if name not in readers:
                continue
            flag = "--" + key.replace("_", "-")
            if isinstance(caster, tuple):
                sp.add_argument(flag, dest=key, choices=caster, help=about)
            elif caster is bool:
                sp.add_argument(flag, dest=key, action="store_const", const=True, help=about)
            else:
                sp.add_argument(flag, dest=key, type=caster, help=about)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.workers is not None and args.workers < 1:
            raise ConfigurationError(f"--workers must be >= 1, got {args.workers}")
        return args.func(args)
    except (CbOptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
