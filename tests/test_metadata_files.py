"""Every ``key=value`` artifact is rendered by ``metaio.format_metadata`` and
keeps the bytes of the hand-written renderers it replaced (kept below
verbatim): ``result.txt``, ``tangency.txt``, ``cml.txt``, ``stats.txt``,
``solve_summary.txt`` and ``diagnose_summary.txt``."""

import numpy as np
import pytest

from cbopt import cli, diagnostics, market
from cbopt.core import CboParams
from cbopt.diagnostics import Verdict, check_params, summary_text
from cbopt.metaio import fmt_float, fmt_vector, format_metadata
from cbopt.objectives import sharpe_components

# ------------------------------------------------------- pre-change renderers


def format_metadata_reference(items: dict) -> str:
    lines = []
    for key, value in items.items():
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = fmt_float(value)
        elif isinstance(value, (list, tuple)) or type(value).__name__ == "ndarray":
            rendered = fmt_vector(value)
        else:
            rendered = str(value)
        lines.append(f"{key}={rendered}")
    return "\n".join(lines) + "\n"


def result_reference(result, objective, stats) -> str:
    final = result.trace.records[-1]
    weights, value = fmt_vector(result.point), fmt_float(objective(result.point))
    result_items = {
        "weights": weights,
        "value": value,
        "iterations": final.iteration,
        "residual": fmt_float(final.residual),
        "best_value": fmt_float(result.best_value),
        "best_weights": fmt_vector(result.best_point),
    }
    if stats is not None:
        ret, risk, sharpe = sharpe_components(stats, result.point)
        result_items.update(
            {"ret": fmt_float(ret), "risk": fmt_float(risk), "sharpe": fmt_float(sharpe)}
        )
    return format_metadata_reference(result_items)


def frontier_references(result, stats) -> tuple[str, str]:
    ret, risk, sharpe = sharpe_components(stats, result.point)
    intercept, slope = market.cml(stats.rf, (risk, ret))
    tangency = format_metadata_reference({
        "weights": fmt_vector(result.point),
        "ret": fmt_float(ret),
        "risk": fmt_float(risk),
        "sharpe": fmt_float(sharpe),
    })
    cml = format_metadata_reference({
        "intercept": fmt_float(intercept),
        "slope": fmt_float(slope),
        "tangency_risk": fmt_float(risk),
        "tangency_ret": fmt_float(ret),
    })
    return tangency, cml


def stats_reference(stats) -> str:
    items = [
        f"d={stats.dim}",
        f"rf={fmt_float(stats.rf)}",
        f"names={' '.join(stats.asset_names)}",
        f"mu={fmt_vector(stats.mu)}",
        f"sigma={fmt_vector(stats.sigma.reshape(-1))}",
    ]
    return "\n".join(items) + "\n"


def summary_reference(report) -> str:
    lines = [
        f"m={fmt_float(report.m)}",
        f"condition_sigma_positive={'true' if report.cond_sigma else 'false'}",
        f"condition_drift_dominates={'true' if report.cond_drift else 'false'}",
        f"condition_step_small={'true' if report.cond_h else 'false'}",
        f"verdict={report.verdict.value}",
    ]
    if report.verdict is Verdict.BOUNDARY:
        lines.append(
            "WARNING Boundary: 2λ = σ² exactly; decay rate "
            f"m={fmt_float(report.m)} is not positive and the geometric "
            "contraction envelope does not apply."
        )
    elif report.verdict is Verdict.VIOLATED:
        failed = []
        if not report.cond_sigma:
            failed.append("sigma > 0")
        if not report.cond_drift:
            failed.append("2λ > σ²")
        if not report.cond_h:
            failed.append("h < (2λ - σ²)/λ²")
        lines.append(
            "WARNING Violated: failed condition(s): " + "; ".join(failed) + "."
        )
    return "\n".join(lines) + "\n"


def diagnose_summary_reference(report, decay, points) -> str:
    summary_lines = [summary_reference(report).rstrip("\n")]
    summary_lines.append(f"decay_applicable={'true' if decay.applicable else 'false'}")
    summary_lines.append(
        f"decay_pairwise_within_bound={'true' if bool(decay.pairwise_ok.all()) else 'false'}"
    )
    summary_lines.append(
        f"decay_consensus_within_bound={'true' if bool(decay.consensus_ok.all()) else 'false'}"
    )
    summary_lines.append("consensus_bound_indexing=ensemble_size")
    summary_lines.append(f"laplace_final_gap={fmt_float(points[-1].gap)}")
    return "\n".join(summary_lines) + "\n"


# ------------------------------------------------------------------- checks


def capture(monkeypatch, module, name) -> list:
    """Replace ``module.name`` with a wrapper that records each return value."""
    seen = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(module, name, wrapper)
    return seen


def text(path) -> str:
    return path.read_bytes().decode("utf-8")


@pytest.fixture
def data(tmp_path, monkeypatch):
    """A 3-asset stats file, checked against the pre-change ``format_stats``."""
    out = tmp_path / "data"
    assert cli.main(["synth", "--assets", "3", "--rows", "200", "--seed", "3", "--out",
                     str(out)]) == 0
    stats = capture(monkeypatch, market, "estimate_stats")
    assert cli.main(["ingest", str(out / "prices.csv"), "--rf", "0.0001", "--out",
                     str(out)]) == 0
    assert text(out / "stats.txt") == stats_reference(stats[0])
    monkeypatch.undo()
    return out / "stats.txt"


def test_stats_file(data):
    stats = market.parse_stats(text(data))
    assert market.format_stats(stats) == stats_reference(stats)


@pytest.mark.parametrize("problem", ["sharpe", "sphere"])
def test_result_and_solve_summary(tmp_path, monkeypatch, data, problem):
    argv = ["--stats", str(data)] if problem == "sharpe" else ["--objective", "sphere",
                                                               "--dim", "3"]
    problems = capture(monkeypatch, cli, "_build_problem")
    runs = capture(monkeypatch, cli, "run")
    reports = capture(monkeypatch, diagnostics, "check_params")
    out = tmp_path / "solve"
    assert cli.main(["solve", *argv, "--max-iters", "40", "--seed", "5", "--grid-step", "0.1",
                     "--out", str(out)]) == 0
    objective, _projector, stats = problems[0]
    assert (stats is None) == (problem == "sphere")
    assert text(out / "result.txt") == result_reference(runs[0], objective, stats)
    assert text(out / "solve_summary.txt") == summary_reference(reports[0])


def test_tangency_and_cml(tmp_path, monkeypatch, data):
    runs = capture(monkeypatch, cli, "run")
    out = tmp_path / "frontier"
    assert cli.main(["frontier", "--stats", str(data), "--samples", "50", "--max-iters", "40",
                     "--seed", "5", "--out", str(out)]) == 0
    tangency, cml = frontier_references(runs[0], market.parse_stats(text(data)))
    assert text(out / "tangency.txt") == tangency
    assert text(out / "cml.txt") == cml


@pytest.mark.parametrize("flags, verdict", [
    ([], Verdict.SATISFIED),
    (["--lambda", "0.5", "--sigma", "1.0"], Verdict.BOUNDARY),
    (["--sigma", "2.0", "--h", "0.5"], Verdict.VIOLATED),
])
def test_diagnose_summary(tmp_path, monkeypatch, data, flags, verdict):
    reports = capture(monkeypatch, diagnostics, "check_params")
    decays = capture(monkeypatch, diagnostics, "decay_experiment")
    sweeps = capture(monkeypatch, diagnostics, "laplace_sweep")
    out = tmp_path / "diagnose"
    assert cli.main(["diagnose", "--stats", str(data), *flags, "--particles", "8", "--runs", "5",
                     "--horizon", "5", "--max-iters", "30", "--grid-step", "0.1", "--seed", "5",
                     "--out", str(out)]) == 0
    assert reports[0].verdict is verdict
    want = diagnose_summary_reference(reports[0], decays[0], sweeps[0])
    assert text(out / "diagnose_summary.txt") == want


@pytest.mark.parametrize("lam, sigma, h, verdict", [
    (1.0, 0.5, 0.1, Verdict.SATISFIED),
    (0.5, 1.0, 0.1, Verdict.BOUNDARY),
    (1.0, 2.0, 0.5, Verdict.VIOLATED),
    (1.0, 0.0, 0.1, Verdict.VIOLATED),
])
def test_summary_text_of_numpy_parameters(lam, sigma, h, verdict):
    # Comparisons of np.float64 fields give np.bool_, not bool.
    params = CboParams(lam=np.float64(lam), sigma=np.float64(sigma), beta=np.float64(10.0),
                       h=np.float64(h), n_particles=8)
    report = check_params(params)
    assert report.verdict is verdict
    assert isinstance(report.cond_sigma, np.bool_)
    assert summary_text(report) == summary_reference(report)
    assert "True" not in summary_text(report) and "False" not in summary_text(report)


def test_format_metadata_of_numpy_values():
    items = {
        "f": np.float64(0.1),
        "tiny": np.float64(5e-324),
        "single": np.float32(0.1),  # the float64 value's repr, as fmt_float gives
        "yes": np.True_,
        "no": np.bool_(False),
        "plain": False,
        "count": np.int64(7),
        "vector": np.array([1.0, -0.0, 1e-300, 1 / 3]),
        "listed": [0.5, 2],
        "word": "ensemble_size",
    }
    assert format_metadata(items) == (
        "f=0.1\ntiny=5e-324\nsingle=0.10000000149011612\nyes=true\nno=false\nplain=false\ncount=7\n"
        "vector=1.0 -0.0 1e-300 0.3333333333333333\nlisted=0.5 2.0\nword=ensemble_size\n"
    )
    # Every value but a numpy boolean or float32 renders as it did before.
    del items["single"], items["yes"], items["no"]
    assert format_metadata(items) == format_metadata_reference(items)
