import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from cbopt import market
from cbopt.cli import main
from cbopt.market import format_stats, parse_prices
from cbopt.metaio import parse_metadata, parse_vector

README = Path(__file__).resolve().parents[1] / "README.md"


def read_meta(path):
    return parse_metadata(path.read_text())


def make_inputs(inputs):
    assert main(["synth", "--assets", "3", "--rows", "80", "--seed", "1",
                 "--out", str(inputs)]) == 0
    assert main(["ingest", str(inputs / "prices.csv"), "--out", str(inputs)]) == 0
    return str(inputs / "stats.txt")


def run_pipeline(root, stats=None, seed="3"):
    """synth -> ingest -> solve -> frontier -> diagnose, all tiny."""
    if stats is None:
        inputs = root / "in"
        stats = make_inputs(inputs)
    else:
        inputs = None
    solve_dir, frontier_dir, diag_dir = root / "solve", root / "frontier", root / "diag"
    assert main(["solve", "--stats", stats, "--seed", seed, "--particles", "40",
                 "--max-iters", "200", "--grid-step", "0.05",
                 "--out", str(solve_dir)]) == 0
    assert main(["frontier", "--stats", stats, "--seed", seed, "--samples", "500",
                 "--particles", "40", "--max-iters", "200",
                 "--out", str(frontier_dir)]) == 0
    assert main(["diagnose", "--stats", stats, "--seed", seed, "--particles", "20",
                 "--max-iters", "200", "--runs", "6", "--horizon", "10",
                 "--grid-step", "0.05", "--out", str(diag_dir)]) == 0
    return inputs, solve_dir, frontier_dir, diag_dir


def test_full_pipeline_produces_every_artifact(tmp_path):
    inputs, solve_dir, frontier_dir, diag_dir = run_pipeline(tmp_path)
    for name in ("solve_meta.txt", "trace.csv", "result.txt", "solve_summary.txt",
                 "error_trace.csv"):
        assert (solve_dir / name).is_file(), name
    for name in ("frontier.csv", "tangency.txt", "cml.txt", "frontier_meta.txt"):
        assert (frontier_dir / name).is_file(), name
    for name in ("decay.csv", "laplace.csv", "diag_error_trace.csv",
                 "diagnose_summary.txt", "diagnose_meta.txt"):
        assert (diag_dir / name).is_file(), name

    result = read_meta(solve_dir / "result.txt")
    weights = np.array(parse_vector(result["weights"]))
    assert weights.shape == (3,)
    assert np.all(weights >= -1e-12)
    assert weights.sum() == pytest.approx(1.0, abs=1e-10)
    assert {"ret", "risk", "sharpe"} <= set(result)

    # tangency weights reappear on the capital market line
    tangency = read_meta(frontier_dir / "tangency.txt")
    line = read_meta(frontier_dir / "cml.txt")
    risk, ret = float(tangency["risk"]), float(tangency["ret"])
    assert float(line["intercept"]) + float(line["slope"]) * risk == pytest.approx(
        ret, abs=1e-12
    )

    summary = (diag_dir / "diagnose_summary.txt").read_text()
    assert "verdict=satisfied" in summary
    assert "decay_applicable=true" in summary
    assert "consensus_bound_indexing=ensemble_size" in summary
    assert "laplace_final_gap=" in summary


def test_synth_output_is_parseable_and_seed_deterministic(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out, seed in ((a, "5"), (b, "5"), (c, "6")):
        assert main(["synth", "--assets", "2", "--rows", "30", "--seed", seed,
                     "--out", str(out)]) == 0
    assert (a / "prices.csv").read_bytes() == (b / "prices.csv").read_bytes()
    assert (a / "prices.csv").read_bytes() != (c / "prices.csv").read_bytes()
    series = parse_prices((a / "prices.csv").read_text())
    assert series.dim == 2
    assert series.n_periods == 30


def test_config_file_flag_precedence(tmp_path):
    inputs = tmp_path / "in"
    main(["synth", "--assets", "2", "--rows", "40", "--out", str(inputs)])
    main(["ingest", str(inputs / "prices.csv"), "--out", str(inputs)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda=2.0\nparticles=33\nmax_iters=60\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--stats", str(inputs / "stats.txt"),
                 "--lambda", "0.8", "--out", str(out)]) == 0
    meta = read_meta(out / "solve_meta.txt")
    assert meta["lambda"] == "0.8"      # flag beats file
    assert meta["particles"] == "33"    # file beats default
    assert meta["sigma"] == "0.5"       # default
    assert meta["max_iters"] == "60"
    # execution-only knobs stay out of the echo
    assert "out" not in meta
    assert "workers" not in meta
    assert "config" not in meta


def test_unknown_flag_exits_with_the_argparse_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--frobnicate", "1"])
    assert exc.value.code == 2


def test_boundary_parameters_warn_in_stdout_and_summary(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", "--objective", "sphere", "--dim", "2",
                 "--lambda", "0.5", "--sigma", "1.0", "--h", "0.01",
                 "--particles", "10", "--max-iters", "40",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "WARNING Boundary: 2λ = σ²" in stdout
    summary = (out / "solve_summary.txt").read_text()
    assert "verdict=boundary" in summary
    assert "m=-0.0025" in summary


def test_identical_seeds_give_byte_identical_artifacts(tmp_path):
    stats = make_inputs(tmp_path / "in")
    run_pipeline(tmp_path / "first", stats=stats, seed="9")
    run_pipeline(tmp_path / "second", stats=stats, seed="9")
    first = sorted(p for p in (tmp_path / "first").rglob("*") if p.is_file())
    second = sorted(p for p in (tmp_path / "second").rglob("*") if p.is_file())
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_worker_count_never_reaches_the_artifacts(tmp_path):
    inputs = tmp_path / "in"
    main(["synth", "--assets", "3", "--rows", "50", "--out", str(inputs)])
    main(["ingest", str(inputs / "prices.csv"), "--out", str(inputs)])
    stats = str(inputs / "stats.txt")
    outs = []
    for tag, workers in (("w1", "1"), ("w4", "4")):
        fdir, ddir = tmp_path / f"f_{tag}", tmp_path / f"d_{tag}"
        assert main(["frontier", "--stats", stats, "--samples", "9000",
                     "--particles", "20", "--max-iters", "80",
                     "--workers", workers, "--out", str(fdir)]) == 0
        assert main(["diagnose", "--stats", stats, "--runs", "6", "--horizon", "8",
                     "--particles", "16", "--max-iters", "80", "--grid-step", "0.1",
                     "--workers", workers, "--out", str(ddir)]) == 0
        outs.append((fdir, ddir))
    (f1, d1), (f4, d4) = outs
    for name in ("frontier.csv", "tangency.txt", "cml.txt", "frontier_meta.txt"):
        assert (f1 / name).read_bytes() == (f4 / name).read_bytes(), name
    for name in ("decay.csv", "laplace.csv", "diagnose_summary.txt", "diagnose_meta.txt"):
        assert (d1 / name).read_bytes() == (d4 / name).read_bytes(), name


def test_frontier_with_zero_samples_still_reports_the_line(tmp_path):
    inputs = tmp_path / "in"
    main(["synth", "--assets", "2", "--rows", "40", "--out", str(inputs)])
    main(["ingest", str(inputs / "prices.csv"), "--rf", "0.01", "--out", str(inputs)])
    out = tmp_path / "out"
    assert main(["frontier", "--stats", str(inputs / "stats.txt"), "--samples", "0",
                 "--particles", "15", "--max-iters", "80", "--out", str(out)]) == 0
    lines = (out / "frontier.csv").read_text().splitlines()
    assert lines == ["risk,ret,sharpe,w1,w2"]
    cml_meta = read_meta(out / "cml.txt")
    assert cml_meta["intercept"] == "0.01"  # the configured risk-free rate


def test_frontier_svg_is_opt_in(tmp_path):
    inputs = tmp_path / "in"
    main(["synth", "--assets", "2", "--rows", "40", "--out", str(inputs)])
    main(["ingest", str(inputs / "prices.csv"), "--out", str(inputs)])
    plain, fancy = tmp_path / "plain", tmp_path / "fancy"
    main(["frontier", "--stats", str(inputs / "stats.txt"), "--samples", "200",
          "--particles", "15", "--max-iters", "60", "--out", str(plain)])
    main(["frontier", "--stats", str(inputs / "stats.txt"), "--samples", "200",
          "--particles", "15", "--max-iters", "60", "--svg", "--out", str(fancy)])
    assert not (plain / "frontier.svg").exists()
    svg = (fancy / "frontier.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_diagnose_beta_list_drives_the_laplace_csv(tmp_path):
    out = tmp_path / "out"
    assert main(["diagnose", "--objective", "sphere", "--dim", "3",
                 "--runs", "4", "--horizon", "6", "--betas", "0,1,10,100",
                 "--particles", "12", "--max-iters", "60", "--grid-step", "0.1",
                 "--out", str(out)]) == 0
    lines = (out / "laplace.csv").read_text().splitlines()
    assert len(lines) == 5
    assert lines[0] == "beta,gap,consensus_0,consensus_1,consensus_2"
    assert lines[1].startswith("0.0,")


def test_diagnose_always_exits_zero_even_when_bounds_fail(tmp_path):
    # boundary parameters: not applicable, bound checks may fail, exit stays 0
    out = tmp_path / "out"
    assert main(["diagnose", "--objective", "sphere", "--dim", "2",
                 "--lambda", "0.5", "--sigma", "1.0", "--h", "0.01",
                 "--runs", "4", "--horizon", "6", "--particles", "10",
                 "--max-iters", "40", "--grid-step", "0.5",
                 "--out", str(out)]) == 0
    summary = (out / "diagnose_summary.txt").read_text()
    assert "verdict=boundary" in summary
    assert "decay_applicable=false" in summary


def test_ingest_reports_the_offending_row(tmp_path, capsys):
    bad = tmp_path / "prices.csv"
    bad.write_text("date,A\n2020-01-01,100\n2020-01-02,-5\n2020-01-03,101\n")
    assert main(["ingest", str(bad), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "row 2" in err
    assert "error:" in err


@pytest.mark.parametrize("first, second", [("1e-308", "1e308"), ("1e308", "1e-308")])
def test_a_price_ratio_out_of_range_is_one_error_line(tmp_path, capsys, first, second):
    # The ratio overflows, or underflows to 0 and its log is -inf.
    bad = tmp_path / "prices.csv"
    bad.write_text(f"date,A\n2020-01-01,{first}\n2020-01-02,{second}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["ingest", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: returns must be finite\n"


def test_a_short_sample_is_one_warning_line(tmp_path, capsys):
    # Two return rows for two assets: the covariance is rank-deficient, which
    # estimate_stats warns about; ingest still writes the stats and exits 0.
    short = tmp_path / "prices.csv"
    short.write_text("date,A,B\n2020-01-01,1,1\n2020-01-02,1,1\n2020-01-03,1,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["ingest", str(short), "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning:")
    assert "rank-deficient" in lines[0]
    assert (tmp_path / "out" / "stats.txt").read_text().startswith("d=2\n")


def test_sharpe_objective_requires_stats(tmp_path, capsys):
    assert main(["solve", "--out", str(tmp_path)]) == 1
    assert "--stats" in capsys.readouterr().err


def test_synthetic_objectives_need_dim(tmp_path, capsys):
    assert main(["solve", "--objective", "sphere", "--out", str(tmp_path)]) == 1
    assert "--dim" in capsys.readouterr().err


def test_projector_dimension_mismatch_is_an_error(tmp_path, capsys):
    assert main(["solve", "--objective", "sphere", "--dim", "3",
                 "--projector", "simplex:2", "--out", str(tmp_path)]) == 1
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize("command, spec", [
    ("solve", "box:,"), ("solve", "ball:,1"), ("diagnose", "box:,"),
])
def test_a_zero_dimension_box_or_ball_is_one_error_line(tmp_path, capsys, command, spec):
    assert main([command, "--objective", "sphere", "--dim", "0", "--projector", spec,
                 "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "nonempty" in lines[0]


def test_solve_on_a_box_with_explicit_projector(tmp_path):
    out = tmp_path / "out"
    assert main(["solve", "--objective", "sphere", "--dim", "2",
                 "--projector", "box:-1.0 -1.0,1.0 1.0",
                 "--particles", "12", "--max-iters", "80",
                 "--out", str(out)]) == 0
    meta = read_meta(out / "solve_meta.txt")
    assert meta["projector_id"] == "box:-1.0 -1.0,1.0 1.0"
    assert "reference_method" not in meta  # no grid oracle off the simplex
    assert not (out / "error_trace.csv").exists()


def test_missing_stats_file_is_reported_not_raised(tmp_path, capsys):
    assert main(["solve", "--stats", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def _frontier_with_config(tmp_path, text, name="out"):
    inputs = tmp_path / "in"
    if not inputs.exists():
        make_inputs(inputs)
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    out = tmp_path / name
    code = main(["frontier", "--config", str(cfg), "--stats", str(inputs / "stats.txt"),
                 "--samples", "50", "--particles", "10", "--max-iters", "40",
                 "--out", str(out)])
    return code, out


def test_config_svg_false_keeps_the_svg_off(tmp_path, capsys):
    cases = (("false", False), ("No", False), ("0", False),
             ("true", True), ("yes", True), ("1", True))
    for i, (value, wanted) in enumerate(cases):
        text = f"svg={value}\n"
        code, out = _frontier_with_config(tmp_path, text, f"case{i}")
        assert code == 0, text
        assert (out / "frontier.svg").exists() is wanted, text
    code, _ = _frontier_with_config(tmp_path, "svg=maybe\n", "bad")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "svg" in err


@pytest.mark.parametrize("key,value", [("noise", "bogus"), ("reference", "maybe")])
def test_config_value_outside_the_choices_is_an_error_line(tmp_path, capsys, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    assert main(["solve", "--config", str(cfg), "--objective", "sphere", "--dim", "2",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err


def test_config_key_no_command_reads_is_rejected_by_name(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lamda=2\nparticles=10\n")
    assert main(["solve", "--config", str(cfg), "--objective", "sphere", "--dim", "2",
                 "--max-iters", "20", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lamda" in err


def test_config_keys_of_other_commands_are_allowed(tmp_path):
    # one file can drive the whole pipeline
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("assets=3\nrows=60\nsamples=40\nruns=2\nhorizon=3\nparticles=10\n"
                   "max_iters=20\nsvg=false\n")
    assert main(["solve", "--config", str(cfg), "--objective", "sphere", "--dim", "2",
                 "--out", str(tmp_path / "out")]) == 0
    meta = read_meta(tmp_path / "out" / "solve_meta.txt")
    assert meta["particles"] == "10"
    assert "samples" not in meta


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_an_error(tmp_path, capsys, workers):
    assert main(["synth", "--assets", "2", "--rows", "20", "--workers", workers,
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--workers" in err
    assert not (tmp_path / "prices.csv").exists()


def _stats_d6(tmp_path):
    inputs = tmp_path / "in6"
    assert main(["synth", "--assets", "6", "--rows", "200", "--seed", "1",
                 "--out", str(inputs)]) == 0
    assert main(["ingest", str(inputs / "prices.csv"), "--out", str(inputs)]) == 0
    return str(inputs / "stats.txt")


@pytest.mark.parametrize("command", ["solve", "diagnose"])
@pytest.mark.parametrize("box", ["box:0 0 0 0 0 0,1 1 1 1 1 1",
                                 "box:-1 0 0 -2 0 0,0 1 1 0 1 1"])
def test_sharpe_on_a_box_with_the_zero_portfolio_as_a_corner_is_an_error_line(
    tmp_path, capsys, command, box
):
    argv = [command, "--stats", _stats_d6(tmp_path), "--projector", box,
            "--particles", "10", "--max-iters", "5", "--out", str(tmp_path / "out")]
    if command == "diagnose":
        argv += ["--runs", "2", "--horizon", "2"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "zero portfolio" in err
    assert "Traceback" not in err and "variance 0.0" not in err


def test_sharpe_on_a_box_that_excludes_zero_still_solves(tmp_path):
    stats = _stats_d6(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--stats", stats, "--projector",
                 "box:0.01 0.01 0.01 0.01 0.01 0.01,1 1 1 1 1 1",
                 "--particles", "30", "--max-iters", "200", "--out", str(out)]) == 0
    result = read_meta(out / "result.txt")
    weights = np.array(parse_vector(result["weights"]))
    assert weights.shape == (6,) and np.all(weights >= 0.01) and np.all(weights <= 1.0)
    assert np.isfinite(float(result["sharpe"]))


@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_betas_are_an_error_line_before_any_artifact(tmp_path, capsys, source):
    out = tmp_path / "out"
    argv = ["diagnose", "--objective", "sphere", "--dim", "2", "--particles", "5",
            "--runs", "2", "--horizon", "2", "--out", str(out)]
    if source == "flag":
        argv += ["--betas", "1,abc"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("betas=1,abc\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "betas" in err
    assert "Traceback" not in err
    assert not (out / "decay.csv").exists()


@pytest.mark.parametrize("kind", ["config", "stats", "prices"])
def test_non_utf8_input_file_is_an_error_line_naming_it(tmp_path, capsys, kind):
    # a cp1252 export: the pound sign is byte 0xA3, which UTF-8 rejects
    bad = tmp_path / f"bad_{kind}.txt"
    bad.write_bytes(b"\xff\xfe" + "date,£fund\n".encode("cp1252"))
    out = str(tmp_path / "out")
    argv = {
        "config": ["solve", "--config", str(bad), "--objective", "sphere", "--dim", "2",
                   "--out", out],
        "stats": ["solve", "--stats", str(bad), "--out", out],
        "prices": ["ingest", str(bad), "--out", out],
    }[kind]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["config", "prices", "stats"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, capsys, kind):
    # Some Windows tools start a UTF-8 file with U+FEFF; the files must read
    # as they do without it.
    inputs = tmp_path / "in"
    make_inputs(inputs)
    text = {"config": "seed=5\nassets=2\nrows=30\n",
            "prices": (inputs / "prices.csv").read_text(),
            "stats": (inputs / "stats.txt").read_text()}[kind]
    artifact = {"config": "prices.csv", "prices": "stats.txt", "stats": "result.txt"}[kind]
    got = []
    for name, prefix in (("plain", ""), ("bom", "\ufeff")):
        path = tmp_path / f"{name}_{kind}.txt"
        path.write_text(prefix + text, encoding="utf-8")
        out = tmp_path / name
        argv = {"config": ["synth", "--config", str(path)],
                "prices": ["ingest", str(path)],
                "stats": ["solve", "--stats", str(path), "--particles", "10",
                          "--max-iters", "5"]}[kind]
        assert main([*argv, "--out", str(out)]) == 0, capsys.readouterr().err
        got.append((out / artifact).read_bytes())
    assert got[0] == got[1]


@pytest.mark.parametrize("betas", ["10,1", "-1,2", ","])
def test_betas_that_parse_but_are_invalid_fail_before_any_artifact(tmp_path, capsys, betas):
    # descending, negative, and empty once the separators are dropped
    out = tmp_path / "out"
    assert main(["diagnose", "--objective", "sphere", "--dim", "2", "--particles", "5",
                 "--runs", "2", "--horizon", "2", f"--betas={betas}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "betas" in err
    assert "Traceback" not in err
    assert not (out / "decay.csv").exists()


def test_duplicate_asset_names_in_stats_are_an_error_line(tmp_path, capsys):
    stats = tmp_path / "in" / "stats.txt"
    make_inputs(stats.parent)
    stats.write_text(stats.read_text().replace("names=A1 A2 A3", "names=A A A"))
    assert main(["solve", "--stats", str(stats), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: duplicate asset name 'A'\n"


@pytest.mark.parametrize("argv", [["solve", "--lambda", "1e308"], ["solve", "--sigma", "1e200"],
                                  ["diagnose", "--lambda", "1e200"]])
def test_parameters_whose_square_overflows_are_an_error_line(tmp_path, capsys, argv):
    out = tmp_path / "out"
    argv += ["--objective", "sphere", "--dim", "2", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflows" in err and "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("lam,sigma", [("1e-200", "0"), ("1e-170", "1e-200")])
def test_a_lam_whose_square_underflows_still_solves(tmp_path, lam, sigma):
    out = tmp_path / "out"
    assert main(["solve", "--objective", "sphere", "--dim", "2", "--lambda", lam,
                 "--sigma", sigma, "--max-iters", "3", "--out", str(out)]) == 0
    assert "condition_step_small=true" in (out / "solve_summary.txt").read_text()


# Each lattice is above the 2**24-coordinate cap, so it fails before any
# memory is touched: 1.7e20, 1.7e14 and 1.7e8 rows (5.4 GB) of 4 floats.
@pytest.mark.parametrize("command", ["solve", "diagnose"])
@pytest.mark.parametrize("step", ["1e-7", "1e-5", "0.001"])
def test_a_grid_too_large_to_allocate_is_an_error_line(tmp_path, capsys, command, step):
    out = tmp_path / "out"
    extra = ["--runs", "2", "--horizon", "2"] if command == "diagnose" else []
    assert main([command, "--objective", "sphere", "--dim", "4", "--max-iters", "3", *extra,
                 "--grid-step", step, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "points" in err and repr(float(step)) in err
    assert "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["synth", "solve", "frontier", "diagnose"])
def test_a_negative_seed_is_an_error_line_before_any_output(tmp_path, capsys, market3,
                                                           command, source):
    stats = tmp_path / "stats.txt"
    stats.write_text(format_stats(market3))
    out = tmp_path / "out"
    argv = [command, "--out", str(out)]
    if command != "synth":
        argv += ["--stats", str(stats), "--max-iters", "3"]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        (tmp_path / "run.cfg").write_text("seed=-3\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: seed must be a nonnegative integer\n"
    assert not out.exists()


def test_an_allocation_that_fails_is_an_error_line(tmp_path, capsys, monkeypatch):
    def no_memory(d):
        raise MemoryError(f"Unable to allocate 74.5 GiB for an array with shape ({d}, {d})")

    monkeypatch.setattr(market, "demo_market", no_memory)
    assert main(["synth", "--assets", "100000", "--rows", "2",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate 74.5 GiB")
    assert "Traceback" not in err


def test_a_demo_market_above_the_cap_is_an_error_line(tmp_path, capsys):
    # One asset over 2**12: the check comes before any allocation.
    assert main(["synth", "--assets", "4097", "--rows", "2", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a demo market of d=4097 assets needs 4097x4097 matrices")
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "prices.csv").exists()


def test_the_readme_pipeline_runs_as_written(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8").split("## Command-line pipeline", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("cbopt ")]
    assert [argv[1] for argv in commands] == ["synth", "ingest", "solve", "frontier", "diagnose"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
