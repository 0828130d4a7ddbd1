"""The option table: flags, config files and the meta echo agree.

Every config key is declared once in ``cli._OPTIONS``; these tests pin what
that declaration must reproduce: the flag set of each subcommand, the key
order of each ``*_meta.txt`` echo, and the same resolved value whether a
key arrives as a flag or from ``--config``.
"""

import re

import pytest

from cbopt.cli import _resolve, build_parser, main

# Key order of each echo with every key set.
META_KEYS = {
    "solve": [
        "command", "lambda", "sigma", "beta", "h", "particles", "max_iters", "tol", "noise",
        "seed", "init_std", "objective", "stats", "dim", "projector", "scale", "rf",
        "reference", "grid_step", "thin", "objective_id", "projector_id", "reference_method",
        "reference_value", "reference_weights", "reference_step", "reference_points",
    ],
    "frontier": [
        "command", "lambda", "sigma", "beta", "h", "particles", "max_iters", "tol", "noise",
        "seed", "init_std", "stats", "rf", "samples", "svg", "objective_id", "projector_id",
    ],
    "diagnose": [
        "command", "lambda", "sigma", "beta", "h", "particles", "max_iters", "tol", "noise",
        "seed", "init_std", "objective", "stats", "dim", "projector", "scale", "rf", "runs",
        "horizon", "betas", "reference", "grid_step", "objective_id", "projector_id",
        "reference_method", "reference_value", "reference_weights", "reference_step",
        "reference_points",
    ],
}

_SOLVER_FLAGS = {
    "--lambda", "--sigma", "--beta", "--h", "--particles", "--max-iters", "--tol", "--noise",
    "--init-std",
}
_COMMON_FLAGS = {"-h", "--help", "--config", "--out", "--seed", "--workers"}
_PROBLEM_FLAGS = {"--objective", "--stats", "--dim", "--projector", "--scale", "--rf"}
HELP_FLAGS = {
    "synth": _COMMON_FLAGS | {"--assets", "--rows"},
    "ingest": (_COMMON_FLAGS - {"--seed"}) | {"--rf"},
    "solve": _COMMON_FLAGS | _SOLVER_FLAGS | _PROBLEM_FLAGS
    | {"--reference", "--grid-step", "--thin"},
    "frontier": _COMMON_FLAGS | _SOLVER_FLAGS | {"--stats", "--rf", "--samples", "--svg"},
    "diagnose": _COMMON_FLAGS | _SOLVER_FLAGS | _PROBLEM_FLAGS
    | {"--runs", "--horizon", "--betas", "--reference", "--grid-step"},
}

# A value for every key that a tiny run accepts; most are not the default.
VALUES = {
    "lambda": "2", "sigma": "0.25", "beta": "50", "h": "0.05", "particles": "6",
    "max_iters": "7", "tol": "1e-6", "noise": "independent", "seed": "5", "init_std": "0.5",
    "objective": "sharpe", "dim": "3", "projector": "simplex:3", "scale": "2", "rf": "0.001",
    "runs": "2", "horizon": "3", "betas": "0,10", "reference": "auto", "grid_step": "0.25",
    "thin": "2", "samples": "20", "svg": "true", "assets": "3", "rows": "30",
}
POSITIONAL = {"ingest": ["prices.csv"]}


def config_keys(command):
    """The config keys of a command: its flags but the execution-only ones."""
    flags = HELP_FLAGS[command] - {"-h", "--help", "--config", "--out", "--workers"}
    return sorted(flag[2:].replace("-", "_") for flag in flags)


COMMAND_KEYS = [(command, key) for command in HELP_FLAGS for key in config_keys(command)]


def _flag_args(key, value):
    flag = "--" + key.replace("_", "-")
    return [flag] if key == "svg" else [flag, value]


def _resolved(argv):
    return _resolve(build_parser().parse_args(argv))


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_help_names_the_same_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out)) == (
        HELP_FLAGS[command]
    )


@pytest.mark.parametrize("command,key", COMMAND_KEYS)
def test_flag_and_config_file_resolve_to_the_same_value(tmp_path, command, key):
    value = "x.txt" if key == "stats" else VALUES[key]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    base = [command, *POSITIONAL.get(command, [])]
    by_flag = _resolved([*base, *_flag_args(key, value)])
    by_file = _resolved([*base, "--config", str(cfg)])
    assert by_flag == by_file
    assert type(by_flag[key]) is type(by_file[key])


@pytest.fixture(scope="module")
def stats_path(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("in")
    assert main(["synth", "--assets", "3", "--rows", "60", "--seed", "2",
                 "--out", str(inputs)]) == 0
    assert main(["ingest", str(inputs / "prices.csv"), "--out", str(inputs)]) == 0
    return str(inputs / "stats.txt")


@pytest.mark.parametrize("command", sorted(META_KEYS))
def test_flags_and_config_file_write_the_same_artifacts(tmp_path, stats_path, command):
    keys = config_keys(command)
    values = dict(VALUES, stats=stats_path)
    argv = [command, *(arg for key in keys for arg in _flag_args(key, values[key]))]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key}={values[key]}\n" for key in keys))
    assert main([*argv, "--out", str(tmp_path / "flags")]) == 0
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0

    meta = (tmp_path / "flags" / f"{command}_meta.txt").read_text()
    assert [line.partition("=")[0] for line in meta.splitlines()] == META_KEYS[command]
    names = sorted(p.name for p in (tmp_path / "flags").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "file").iterdir())
    for name in names:
        assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


def test_unknown_config_key_exits_1_naming_it(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("particles=10\nwokers=2\n")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: unknown config key(s) in {cfg}: wokers\n"


def test_repeated_config_key_exits_1_naming_both_lines(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=1\nparticles=10\nseed=2\n")
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {cfg}: line 3: duplicate key 'seed' (first on line 1)\n"
    assert not out.exists()


def test_config_value_outside_the_choices_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("noise=bogus\n")
    assert main(["solve", "--config", str(cfg), "--objective", "sphere", "--dim", "2",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {cfg}: config value noise='bogus': "
                   "expected one of common, independent\n")


def test_flag_value_outside_the_choices_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--noise", "bogus", "--objective", "sphere", "--dim", "2",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "argument --noise: invalid choice: 'bogus'" in capsys.readouterr().err
