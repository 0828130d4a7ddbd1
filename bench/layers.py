"""Per-layer metrics computed from one traced pass.

Each metric names the workloads on which its layer is expected to run.  On
those workloads a metric whose spans saw no call is reported as missing, not
as 0, so a refactor that routes work around a traced function shows up
instead of reading as a speed-up.  On the other workloads the metric is 0.
"""

from __future__ import annotations

from tracer import WRITERS, SpanTable

ALL = ("portfolio", "highdim", "decay")
P, H, D = ("portfolio",), ("highdim",), ("decay",)

PROJECT_ROWS = tuple(
    f"projections.{cls}.project_rows"
    for cls in ("SimplexProjector", "BoxProjector", "BallProjector")
)
OBJECTIVE_CALLS = ("objectives.Objective.eval_many", "objectives.Objective.__call__")


def _nonzero(value):
    return value if value else None


def _iterations(t: SpanTable, ancestor: str):
    return _nonzero(t.under("core.predictor_step", ancestor))


def _per_iter(t: SpanTable):
    iters = _iterations(t, "core.run")
    return 1e6 * t.total("core.run") / iters if iters else None


def _rows(t: SpanTable, which: int):
    return sum(info[which] for name in PROJECT_ROWS for info in t.infos(name))


def _moved_share(t: SpanTable):
    rows = _rows(t, 0)
    return _rows(t, 1) / rows if rows else None


def _objective(t: SpanTable, kind: str | None, what: str):
    """Seconds (``what='s'``) or points evaluated (``'n'``) for one family."""
    total, n, seen = 0.0, 0, False
    for name in OBJECTIVE_CALLS:
        for rec in t.by_name.get(name, ()):
            if kind is None or rec[6][0] == kind:
                seen = True
                total += rec[4] - rec[3]
                n += rec[6][1]
    if not seen:
        return None
    return total if what == "s" else n


def _ns_per_eval(t: SpanTable):
    n = _objective(t, None, "n")
    return 1e9 * _objective(t, None, "s") / n if n else None


def _parallel_eff(t: SpanTable):
    recs = t.by_name.get("diagnostics.decay_experiment", ())
    busy = sum((r[4] - r[3]) * r[6][0] for r in recs)
    return sum(r[6][1] for r in recs) / busy if busy else None


def _writer_sum(t: SpanTable, which: int):
    return sum(info[which] for name in WRITERS for info in t.infos(name))


def _write_s(t: SpanTable):
    return sum(t.total(name) for name in WRITERS)


def _mb_per_s(t: SpanTable):
    secs = _write_s(t)
    return _writer_sum(t, 0) / secs / 1e6 if secs else None


def _info_sum(name: str, which: int | None = None):
    def f(t: SpanTable):
        infos = t.infos(name)
        if not infos:
            return None
        return sum(i if which is None else i[which] for i in infos)

    return f


def _total(name: str):
    return lambda t: t.total(name)


def _self(name: str):
    return lambda t: t.self_time(name)


# (metric, unit, workloads where expected, spans that must have run there, value)
METRICS = [
    ("core.iterations", "count", ALL, ("core.run",), lambda t: _iterations(t, "core.run")),
    ("core.us_per_iter", "us", ALL, ("core.run",), _per_iter),
    ("core.run.self_s", "s", ALL, ("core.run",), _self("core.run")),
    ("core.consensus_s", "s", ALL, ("core.consensus_point",), _total("core.consensus_point")),
    ("core.predictor_s", "s", ALL, ("core.predictor_step",), _total("core.predictor_step")),
    ("core.noise_s", "s", ALL, ("core.draw_step_noise",), _total("core.draw_step_noise")),
    ("core.init_s", "s", ALL, ("core.init_ensemble",), _total("core.init_ensemble")),
    ("core.trace_write_s", "s", P + H, ("core.write_trace_csv",), _total("core.write_trace_csv")),
    ("core.trace_rows", "count", P + H, ("core.write_trace_csv",),
     _info_sum("core.write_trace_csv", 1)),
    ("projections.ball_s", "s", H, (PROJECT_ROWS[2],), _total(PROJECT_ROWS[2])),
    ("projections.simplex_s", "s", P + D, (PROJECT_ROWS[0],), _total(PROJECT_ROWS[0])),
    ("projections.rows", "count", ALL, (), lambda t: _nonzero(_rows(t, 0))),
    ("projections.moved_share", "ratio", ALL, (), _moved_share),
    ("objectives.neg_sharpe_s", "s", P + D, (), lambda t: _objective(t, "neg_sharpe", "s")),
    ("objectives.rastrigin_s", "s", H, (), lambda t: _objective(t, "rastrigin", "s")),
    ("objectives.evals", "count", ALL, (), lambda t: _objective(t, None, "n")),
    ("objectives.ns_per_eval", "ns", ALL, (), _ns_per_eval),
    ("diagnostics.decay_s", "s", P + D, ("diagnostics.decay_experiment",),
     _total("diagnostics.decay_experiment")),
    ("diagnostics.decay_self_s", "s", P + D, ("diagnostics.decay_experiment",),
     _self("diagnostics.decay_experiment")),
    ("diagnostics.decay_steps", "count", P + D, ("diagnostics.decay_experiment",),
     lambda t: _iterations(t, "diagnostics.decay_experiment")),
    ("diagnostics.parallel_eff", "ratio", P + D, ("diagnostics.decay_experiment",),
     _parallel_eff),
    ("diagnostics.laplace_s", "s", P + D, ("diagnostics.laplace_sweep",),
     _total("diagnostics.laplace_sweep")),
    ("diagnostics.error_trace_s", "s", D, ("diagnostics.error_trace",),
     _total("diagnostics.error_trace")),
    ("baseline.grid_s", "s", D, ("baseline.grid_search_simplex",),
     _total("baseline.grid_search_simplex")),
    ("baseline.lattice_s", "s", D, ("baseline.simplex_lattice",),
     _total("baseline.simplex_lattice")),
    ("baseline.grid_points", "count", D, ("baseline.simplex_lattice",),
     _info_sum("baseline.simplex_lattice")),
    ("market.synth_s", "s", P, ("market.synthetic_market",), _total("market.synthetic_market")),
    ("market.parse_prices_s", "s", P, ("market.parse_prices",), _total("market.parse_prices")),
    ("market.estimate_s", "s", P, ("market.estimate_stats",), _total("market.estimate_stats")),
    ("market.sample_frontier_s", "s", P, ("market.sample_frontier",),
     _total("market.sample_frontier")),
    ("market.frontier_write_s", "s", P, ("market.write_frontier_csv",),
     _total("market.write_frontier_csv")),
    ("market.frontier_rows", "count", P, ("market.write_frontier_csv",),
     _info_sum("market.write_frontier_csv", 1)),
    ("metaio.write_s", "s", ALL, ("metaio.write_metadata",), _write_s),
    ("metaio.bytes_written", "bytes", ALL, ("metaio.write_metadata",),
     lambda t: _writer_sum(t, 0)),
    ("metaio.MB_per_s", "MB/s", ALL, ("metaio.write_metadata",), _mb_per_s),
    ("cli.synth.self_s", "s", P, ("cli.cmd_synth",), _self("cli.cmd_synth")),
    ("cli.ingest.self_s", "s", P, ("cli.cmd_ingest",), _self("cli.cmd_ingest")),
    ("cli.solve.self_s", "s", P + H, ("cli.cmd_solve",), _self("cli.cmd_solve")),
    ("cli.frontier.self_s", "s", P, ("cli.cmd_frontier",), _self("cli.cmd_frontier")),
    ("cli.diagnose.self_s", "s", P + D, ("cli.cmd_diagnose",), _self("cli.cmd_diagnose")),
    ("trace.spans", "count", ALL, (), lambda t: t.n_spans),
]

# Exact work counts: two traced passes at one seed must agree on these.
EXACT = {name for name, unit, *_ in METRICS if unit in ("count", "bytes")}
EXACT.add("projections.moved_share")


def layer_metrics(table: SpanTable, workload: str) -> tuple[dict, list[str]]:
    """``({metric: value}, [missing metrics])`` for one traced pass."""
    values, missing = {}, []
    for name, _unit, expected, spans, fn in METRICS:
        if workload not in expected:
            values[name] = 0
            continue
        value = None if any(table.calls(s) == 0 for s in spans) else fn(table)
        if value is None:
            missing.append(name)
        else:
            values[name] = value
    return values, missing
