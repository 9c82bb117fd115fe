"""CLI tests: config validation, verbs, exit codes, CSV determinism, and the
inline set-valued description parser."""
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from metricfourier import cli
from metricfourier import fixtures as fx
from metricfourier.cli import (ConfigError, ExperimentConfig, main,
                               parse_weight, run_example, selection_depth)
from metricfourier.fixtures import DescriptionError, parse_svf

PI = math.pi


def write_cfg(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing

def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"fixture": "lines", "bogus": 1})


def test_config_validates_values():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"orders": [0]})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"norm": "l7"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"depth": 0})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"tolerances": {"threads": -1}})


def test_config_unknown_fixture():
    cfg = ExperimentConfig.from_dict({"fixture": "nope"})
    with pytest.raises(ConfigError):
        cfg.build_svf()


def test_config_grid_bounds():
    cfg = ExperimentConfig.from_dict({"fixture": "lines",
                                      "x_grid": [0.0, 99.0]})
    with pytest.raises(ConfigError):
        cfg.grid(cfg.build_svf())


def test_selection_depth_schedule():
    assert selection_depth(1) == 6
    assert selection_depth(16) == 8
    assert selection_depth(256) == 12
    assert selection_depth(10 ** 6) == 12


def test_parse_weight_kinds():
    k = parse_weight(None)
    assert k(0.3) == 1.0
    poly = parse_weight({"kind": "poly", "coeffs": [1.0, 2.0]})
    assert abs(poly(2.0) - 5.0) < 1e-12
    assert abs(poly.antiderivative(1.0) - 2.0) < 1e-12
    cosw = parse_weight({"kind": "cos", "k": 2})
    assert abs(cosw(0.25) - math.cos(0.5)) < 1e-12
    with pytest.raises(ConfigError):
        parse_weight({"kind": "nope"})


# ---------------------------------------------------------------------------
# verbs via main()

SMALL = {"fixture": "step-svf", "orders": [4, 8], "x_grid": [0.2, 0.5, 1.0],
         "x_seeds": 3, "y_seeds": 2, "depth": 2}


def test_convergence_csv_byte_stable(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", SMALL)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["convergence", "--config", cfg, "--out", out1]) == 0
    assert main(["convergence", "--config", cfg, "--out", out2]) == 0
    b1 = open(out1, "rb").read()
    assert b1 == open(out2, "rb").read()
    lines = b1.decode().strip().splitlines()
    assert lines[0] == "n,x,distance,target"
    assert len(lines) == 1 + 2 * 3


def test_convergence_constant_fixture_all_zero(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"fixture": "constant-pm1", "orders": [4],
                     "x_grid": [0.0, 1.0], "x_seeds": 3, "y_seeds": 2,
                     "depth": 2})
    out = str(tmp_path / "c.csv")
    assert main(["convergence", "--config", cfg, "--out", out]) == 0
    for line in open(out).read().strip().splitlines()[1:]:
        assert float(line.split(",")[2]) < 1e-9


def test_bound_check_square_wave(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "b.json",
                    {"fixture": "square-wave", "orders": [8, 32]})
    assert main(["bound-check", "--config", cfg]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    for row in rows:
        n, observed, bound, ok = row.split(",")
        assert ok == "1"
        assert float(observed) <= float(bound)


def test_bound_check_evaluates_omega_once_per_delta(tmp_path, monkeypatch):
    calls = []
    jump_omega = cli.svf_jump_omega

    def counting(*args):
        omega = jump_omega(*args)
        return lambda d: calls.extend(np.atleast_1d(d).tolist()) or omega(d)

    monkeypatch.setattr(cli, "svf_jump_omega", counting)
    cfg = write_cfg(tmp_path, "b.json", {"fixture": "lines", "orders": [4, 16],
                                         "depth": 1})
    assert main(["bound-check", "--config", cfg]) == 0
    assert len(calls) == len(cli.delta_grid()) == 32


def test_integral_verb(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "i.json",
                    {"fixture": "constant-pm1", "x_seeds": 3, "y_seeds": 2,
                     "depth": 3})
    assert main(["integral", "--config", cfg]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    kinds = {line.split(",")[0] for line in out[1:]}
    assert kinds == {"metric", "aumann_vertex"}


def test_selections_verb_deterministic(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "s.json", SMALL)
    assert main(["selections", "--config", cfg]) == 0
    first = capsys.readouterr().out
    assert main(["selections", "--config", cfg]) == 0
    assert capsys.readouterr().out == first


def test_hausdorff_verb(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "h.json",
                    {"set_a": [[0.0, 0.0]], "set_b": [[1.0, 1.0]]})
    assert main(["hausdorff", "--config", cfg]) == 0
    assert abs(float(capsys.readouterr().out) - math.sqrt(2.0)) < 1e-15


def test_hausdorff_verb_norm_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "h.json",
                    {"set_a": [[0.0, 0.0]], "set_b": [[1.0, 1.0]],
                     "norm": "l1"})
    assert main(["hausdorff", "--config", cfg]) == 0
    assert abs(float(capsys.readouterr().out) - 2.0) < 1e-15


@pytest.mark.parametrize("flags", [["--norm", "linf"], ["--out", "f.csv"],
                                   ["--seed-grid", "3,2"], ["--depth", "5"]])
def test_hausdorff_verb_rejects_experiment_flags(tmp_path, capsys,
                                                 monkeypatch, flags):
    """hausdorff takes only --config; its norm is the config's `norm` key,
    so a flag it would ignore is a usage error (exit 2), not silence."""
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "h.json",
                    {"set_a": [[0.0, 0.0]], "set_b": [[3.0, 4.0]]})
    with pytest.raises(SystemExit) as exc:
        main(["hausdorff", "--config", cfg, *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "f.csv").exists()


# ---------------------------------------------------------------------------
# exit codes

def test_exit_code_2_unknown_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bad.json", {"fixture": "lines", "bogus": 1})
    assert main(["convergence", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_2_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["convergence", "--config", str(path)]) == 2


def test_exit_code_2_missing_file(capsys):
    assert main(["convergence", "--config", "/nonexistent.json"]) == 2


def test_exit_code_2_unknown_y_seeds_word(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bad.json", {"fixture": "lines", "y_seeds": "most"})
    assert main(["convergence", "--config", cfg]) == 2
    assert "y_seeds" in capsys.readouterr().err


@pytest.mark.parametrize("flags, word", [
    (["--seed-grid", "0,0"], "seed counts"),
    (["--seed-grid", "3,most"], "--seed-grid"),
    (["--seed-grid", "3"], "--seed-grid"),
    (["--depth", "0"], "depth"),
    (["--depth", "40"], "depth"),
])
def test_exit_code_2_bad_flag_values(tmp_path, capsys, flags, word):
    """Flags are validated with the config they override."""
    cfg = write_cfg(tmp_path, "ok.json", SMALL)
    assert main(["convergence", "--config", cfg, *flags]) == 2
    assert word in capsys.readouterr().err


def test_parser_is_built_once_and_flags_do_not_carry_over(tmp_path, capsys,
                                                         monkeypatch):
    """`main` reuses one parser, and each call parses into a new namespace:
    the first call's `--depth 3` does not reach the second."""
    depths = []
    monkeypatch.setattr(cli, "run_selections",
                        lambda cfg: depths.append(cfg.depth) or [])
    cfg = write_cfg(tmp_path, "ok.json", {"fixture": "lines"})
    assert main(["selections", "--config", cfg, "--depth", "3"]) == 0
    assert main(["selections", "--config", cfg]) == 0
    assert depths == [3, ExperimentConfig().depth]
    assert cli.build_parser() is cli.build_parser()


def test_seed_grid_flag_matches_config_keys(tmp_path, capsys):
    """`--seed-grid X,all` is the config's `"y_seeds": "all"`."""
    cfg = write_cfg(tmp_path, "ok.json", SMALL)
    keys = write_cfg(tmp_path, "keys.json", {**SMALL, "x_seeds": 2,
                                             "y_seeds": "all"})
    assert main(["convergence", "--config", cfg, "--seed-grid", "2,all"]) == 0
    by_flag = capsys.readouterr().out
    assert main(["convergence", "--config", keys]) == 0
    assert by_flag == capsys.readouterr().out


def test_exit_code_2_hausdorff_unknown_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "h.json",
                    {"set_a": [[0.0]], "set_b": [[1.0]], "extra": 1})
    assert main(["hausdorff", "--config", cfg]) == 2


@pytest.mark.parametrize("set_a, set_b", [
    ([[0.0], [0.0, 1.0]], [[1.0]]),           # ragged
    ([], [[1.0]]),                            # empty
    ([[float("nan")]], [[1.0]]),              # non-finite
    ([[0.0, 0.0]], [[1.0]]),                  # different dimensions
])
def test_exit_code_2_hausdorff_invalid_points(tmp_path, capsys, set_a, set_b):
    cfg = write_cfg(tmp_path, "h.json", {"set_a": set_a, "set_b": set_b})
    assert main(["hausdorff", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("verb, config, field", [
    ("hausdorff", {"set_a": [[True]], "set_b": [[1.0]]}, "set_a"),
    ("hausdorff", {"set_a": [[0.0]], "set_b": [1.0, False]}, "set_b"),
    ("selections", {"svf": {"domain": [0, 1],
                            "pieces": [{"points": [True, False]}]}},
     "pieces[0].points"),
    ("selections", {"svf": {"domain": [0, 1], "pieces": [{"points": [[0]]}],
                            "at": [{"x": 0.5, "points": [[0], [True]]}]}},
     "at[0].points"),
], ids=["set_a", "set_b", "piece", "at"])
def test_exit_code_2_bools_in_point_lists(tmp_path, capsys, verb, config,
                                          field):
    """JSON's true and false are not coordinates, although numpy reads
    them as 1 and 0: a point list holding one is a config error naming
    the field."""
    cfg = write_cfg(tmp_path, "c.json", config)
    assert main([verb, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{field} must hold numbers" in err


@pytest.mark.parametrize("verb, config, field", [
    ("hausdorff", {"set_a": [["1e3"]], "set_b": [[0]]}, "set_a"),
    ("hausdorff", {"set_a": [[0.0]], "set_b": [[1.0], ["2"]]}, "set_b"),
    ("hausdorff", {"set_a": [[0.0, None]], "set_b": [[1.0, 0.0]]}, "set_a"),
    ("selections", {"svf": {"domain": [0, 1],
                            "pieces": [{"points": [["1"]]}]}},
     "pieces[0].points"),
], ids=["set_a", "set_b", "null", "piece"])
def test_exit_code_2_strings_in_point_lists(tmp_path, capsys, verb, config,
                                            field):
    """A numeric string is not a coordinate, although a float conversion
    reads "1e3" as 1000."""
    cfg = write_cfg(tmp_path, "c.json", config)
    assert main([verb, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err
    assert f"{field} must hold numbers" in captured.err


@pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf"])
def test_exit_code_2_example_eps(capsys, eps):
    # Validated as the config's eps: no ZeroDivisionError traceback at 0,
    # no FAIL from 9-point nets at -1, no size message at nan.
    assert main(["example", "balls", "--eps", eps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: eps must be a positive number" in captured.err


def test_config_rejects_malformed_types():
    for bad in ({"orders": [4.5]}, {"orders": ["16"]}, {"orders": 16},
                {"x_grid": "9"}, {"x_grid": [0.0, "1"]}, {"depth": "4"},
                {"weight": {"kind": "poly"}}, {"fixture": "balls", "eps": 0},
                {"fixture": "balls", "eps": -0.5}, {"eps": float("nan")},
                {"eps": float("inf")}):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)


def test_convergence_needs_the_period_domain(tmp_path, capsys):
    """Coefficients are taken on [-pi, pi], so `convergence` refuses another
    domain (exit 2); `integral` and `selections` take any domain."""
    svf = {"domain": [-1.0, 1.0], "pieces": [{"points": [[-1.0], [1.0]]}]}
    cfg = {"svf": svf, "orders": [4], "x_grid": [0.0], "x_seeds": 3,
           "y_seeds": 2, "depth": 2}
    with pytest.raises(ConfigError, match="domain"):
        cli.run_convergence(ExperimentConfig.from_dict(cfg))
    path = write_cfg(tmp_path, "short.json", cfg)
    assert main(["convergence", "--config", path]) == 2
    assert "domain" in capsys.readouterr().err
    for verb in ("integral", "selections"):
        assert main([verb, "--config", path]) == 0


def test_exit_code_2_missing_weight_coeffs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "w.json", {"fixture": "lines",
                                         "weight": {"kind": "poly"}})
    assert main(["integral", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        parse_weight({"kind": "poly"})


def test_library_key_error_is_not_a_config_error(tmp_path, monkeypatch,
                                                 capsys):
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "_families", broken)
    cfg = write_cfg(tmp_path, "ok.json", SMALL)
    with pytest.raises(KeyError, match="internal"):
        main(["convergence", "--config", cfg])
    assert "config error" not in capsys.readouterr().err


def test_example_lines_passes(capsys):
    assert main(["example", "lines"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok:") == 3
    assert "FAIL" not in out


def test_example_balls_passes(capsys):
    assert main(["example", "balls", "--eps", "0.05"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok:") == 3
    assert "FAIL" not in out


def test_cli_does_not_import_the_test_oracle():
    # The worked examples check closed forms; oracle.py serves only tests.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = ("import sys, metricfourier.cli; "
            "print('metricfourier.oracle' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


# The modules that the package loads only on first use, or never: the scipy
# subpackages, and numpy.random (with hashlib and OpenSSL).  Under pytest,
# pyproject.toml's IntegrationWarning filter imports scipy.integrate, so only
# a fresh interpreter shows what a CLI call loads.
LAZY = ("scipy.spatial", "scipy.sparse", "scipy.integrate", "numpy.random")


def run_fresh(tmp_path, verb, config):
    """`verb` on the config in a fresh interpreter: its stdout and the
    scipy and numpy subpackages it loaded."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = ("import json, sys; from metricfourier.cli import main; "
            "rc = main(sys.argv[1:]); "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.', 'numpy.')))), file=sys.stderr); "
            "sys.exit(rc)")
    cfg = write_cfg(tmp_path, f"{verb}.json", config)
    proc = subprocess.run([sys.executable, "-c", code, verb, "--config", cfg],
                          env=env, check=True, capture_output=True)
    loaded = json.loads(proc.stderr.decode().strip().splitlines()[-1])
    return proc.stdout, {".".join(m.split(".")[:2]) for m in loaded}


SMALL_CALLS = {
    "bound-step-svf": ("bound-check", {"fixture": "step-svf",
                                       "orders": [4, 16], "depth": 1}),
    "bound-square-wave": ("bound-check", {"fixture": "square-wave",
                                          "orders": [8, 32]}),
    "integral-curve": ("integral", {
        "svf": {"domain": [-PI, PI], "pieces": [
            {"end": 0.5, "curve": [["cos(t)", "sin(t)"],
                                   ["cos(t)", "sin(t) + 2"]]},
            {"curve": [["0.5 * t", "cos(t) - 1"]]}]},
        "depth": 5, "weight": {"kind": "poly", "coeffs": [1.0, 0.25]}}),
    "hausdorff-3-points": ("hausdorff", {
        "set_a": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        "set_b": [[3.0, 4.0], [4.0, 4.0], [3.0, 5.0]]}),
}


@pytest.mark.parametrize("name", sorted(SMALL_CALLS))
def test_cli_on_small_sets_loads_no_scipy_subpackage(tmp_path, name):
    """These calls query sets of a few points and integrate no weight
    without an antiderivative: numpy alone serves them, without
    numpy.random."""
    verb, config = SMALL_CALLS[name]
    _, loaded = run_fresh(tmp_path, verb, config)
    assert not loaded & set(LAZY)


# Balls convergence on nets of at most GRID_MIN points (eps 0.1) and on
# 8,201-point nets (eps 0.02), with the tables captured when the package
# queried large nets through a scipy.spatial KD-tree.
DISC_NETS = {"eps-0.1": (0.1, "convergence-balls.exact.csv"),
             "eps-0.02": (0.02, "convergence-balls-fine.exact.csv")}


@pytest.mark.parametrize("name", sorted(DISC_NETS))
def test_cli_on_disc_nets_loads_no_scipy_spatial(tmp_path, name):
    """Brute force on small nets and the cell grid on large ones need numpy
    alone: no net loads scipy.spatial, nor numpy.random.  Either way the
    table is byte for byte the captured one."""
    eps, capture = DISC_NETS[name]
    golden = Path(__file__).resolve().parent / "golden"
    out, loaded = run_fresh(tmp_path, "convergence", {
        "fixture": "balls", "orders": [4, 16], "x_grid": 3, "depth": 1,
        "eps": eps})
    assert not loaded & set(LAZY)
    assert out == (golden / capture).read_bytes()


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--threads", "2"])
    assert exc.value.code == 2


def test_example_integral_inclusion_passes(capsys):
    assert main(["example", "integral-inclusion"]) == 0
    assert capsys.readouterr().out.count("ok:") == 3


def test_example_assertion_failure_exits_1(monkeypatch):
    # Force a failing worked-example to exercise exit code 1.
    from metricfourier.fixtures import constant_set_fixture
    monkeypatch.setattr(cli.fx, "lines_fixture",
                        lambda: constant_set_fixture([0.5]))
    buf = io.StringIO()
    assert run_example("lines", out=buf) == 1
    assert "FAIL" in buf.getvalue()


# ---------------------------------------------------------------------------
# inline description parser

def test_parse_svf_pieces_and_override():
    desc = {"domain": [0.0, 2.0],
            "pieces": [{"end": 1.0, "points": [[0.0]]},
                       {"points": [[1.0]]}],
            "at": [{"x": 1.0, "points": [[0.0], [1.0]]}]}
    F = parse_svf(desc)
    assert np.allclose(F(0.5).points, [[0.0]])
    assert np.allclose(F(1.5).points, [[1.0]])
    assert len(F(1.0)) == 2
    assert F.jump_points == (1.0,)


def test_parse_svf_curve():
    desc = {"domain": [-PI, PI],
            "pieces": [{"curve": ["sin(t)", "sin(t) + 2"]}]}
    F = parse_svf(desc)
    got = np.sort(F(0.5).points[:, 0])
    assert np.allclose(got, [math.sin(0.5), math.sin(0.5) + 2.0])


def test_parse_svf_rejects_unknown_keys():
    with pytest.raises(DescriptionError):
        parse_svf({"domain": [0, 1], "pieces": [{"points": [[0]]}],
                   "wat": True})
    with pytest.raises(DescriptionError):
        parse_svf({"domain": [0, 1],
                   "pieces": [{"points": [[0]], "speed": 3}]})


# Curve expressions outside the language: numbers, t, pi, unary + and -,
# binary + - * / ** and keyword-free calls of the listed functions.
OUTSIDE_THE_LANGUAGE = (
    "().__class__.__mro__[1].__subclasses__().__len__()", "log(t)",
    "__import__('os')", "t.real", "[t][0]", "(lambda: t)()", "sin(x=t)",
    "sin(*[t])", "pi(t)", "sin", "t % 2", "t // 2", "t < 1", "1j", "True",
    "'t'", "1+" * 5000 + "t", "-" * 100000 + "t", "sin(t, t)", "abs()")


def test_parse_svf_validates_structure():
    """Every defect visible before a curve is evaluated."""
    disc = {"center": [0, 0], "radius": 1, "eps": 0.5}
    for bad in (
            {"domain": [1, 0], "pieces": [{"points": [[0]]}]},
            {"domain": [0, 1], "pieces": []},
            {"domain": [0, 1], "pieces": [{"points": [[0]], "curve": ["t"]}]},
            {"domain": [0, 1], "pieces": [{"points": [[0]]},
                                          {"points": [[1]]}]},
            {"domain": ["a", 1], "pieces": [{"points": [[0]]}]},
            {"domain": [0, 1], "pieces": 5},
            {"domain": [0, 1], "pieces": [{"points": [[float("nan")]]}]},
            {"domain": [0, 1], "pieces": [{"points": [[0], [0, 1]]}]},
            {"domain": [0, 1], "pieces": [{"curve": ["t +"]}]},
            {"domain": [0, 1], "pieces": [{"curve": ["t", ["t", "t"]]}]},
            {"domain": [0, 1], "pieces": [{"end": "a", "points": [[0]]},
                                          {"points": [[1]]}]},
            {"domain": [0, 1], "pieces": [{"disc": {**disc, "eps": 0}}]},
            {"domain": [0, 1], "pieces": [{"disc": {**disc, "radius": -1}}]},
            {"domain": [0, 1], "pieces": [{"disc": {"center": [0, 0],
                                                    "eps": 0.5}}]},
            {"domain": [0, 1], "pieces": [{"disc": {**disc, "center": [0]}}]},
            {"domain": [0, 1], "pieces": [{"points": [[0]]}],
             "at": [{"points": [[1]]}]},
            {"domain": [0, 1], "pieces": [{"points": [[0]]}],
             "at": [{"x": 2, "points": [[1]]}]},
            *({"domain": [0, 1], "pieces": [{"curve": [expr]}]} for expr in
              OUTSIDE_THE_LANGUAGE)):
        with pytest.raises(DescriptionError):
            parse_svf(bad)


def test_parse_svf_accepts_the_whole_language():
    expr = "-t + +2 * pi / 4 ** 2 - abs(sin(t)) + sqrt(exp(cos(tan(t)))) + 1e-3"
    F = parse_svf({"domain": [0, 1], "pieces": [{"curve": [[expr, 3]]}]})
    t = 0.25
    want = (-t + 2 * PI / 16 - abs(math.sin(t))
            + math.sqrt(math.exp(math.cos(math.tan(t)))) + 1e-3)
    assert np.array_equal(F(t).points, [[want, 3.0]])


@pytest.mark.parametrize("expr", [
    "().__class__.__mro__[1].__subclasses__().__len__()", "log(t)"])
def test_exit_code_2_curve_outside_the_language(tmp_path, capsys, expr):
    """A curve expression is checked before anything evaluates it: the
    payload that counts the loaded classes and an unknown function are
    config errors, not code that runs or a traceback."""
    svf = {"domain": [-PI, PI], "pieces": [{"curve": [[expr, "t"]]}]}
    cfg = write_cfg(tmp_path, "svf.json", {"svf": svf, "orders": [4]})
    assert main(["convergence", "--config", cfg]) == 2
    assert "outside the expression language" in capsys.readouterr().err


def test_curve_int_literals_are_floats():
    """`9**9**7` overflows as a float power at the first evaluation of F
    instead of building a 4.5-million-digit int at every one."""
    F = parse_svf({"domain": [0, 1],
                   "pieces": [{"curve": ["9**9**7 * 0 + t"]}]})
    with pytest.raises(DescriptionError, match=r"pieces\[0\]\.curve at t="):
        F(0.5)


def test_exit_code_2_curve_evaluation_error(tmp_path, capsys):
    """An error raised while a valid curve is evaluated (sqrt of a negative
    t) is a config error naming the piece and t, not a traceback."""
    svf = {"domain": [-1.0, 1.0], "pieces": [{"curve": ["sqrt(t)"]}]}
    cfg = write_cfg(tmp_path, "svf.json", {"svf": svf, "depth": 2})
    assert main(["selections", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "pieces[0].curve at t=" in err


# Descriptions whose pieces or `at` overrides differ in dimension, and the
# entry that differs from pieces[0].
MIXED_DIMENSIONS = [
    ({"domain": [-PI, PI], "pieces": [{"points": [[0, 1]], "end": 0.5},
                                      {"points": [[0]]}]}, "pieces[1]"),
    ({"domain": [-PI, PI], "pieces": [{"curve": [["t", "t"]], "end": 0.5},
                                      {"curve": [["t"]]}]}, "pieces[1]"),
    ({"domain": [-PI, PI], "pieces": [{"curve": ["sin(t)"]}],
      "at": [{"x": 0.5, "disc": {"center": [0, 0], "radius": 1,
                                 "eps": 0.5}}]}, "at[0]"),
]


@pytest.mark.parametrize("svf, where", MIXED_DIMENSIONS,
                         ids=["points", "curve", "at-disc"])
def test_exit_code_2_pieces_of_different_dimensions(tmp_path, capsys, svf,
                                                    where):
    """Every piece's dimension is known before a curve is evaluated, so a
    description that mixes dimensions is a config error for every verb,
    not a crash in the selection engine."""
    with pytest.raises(DescriptionError, match=re.escape(where)):
        parse_svf(svf)
    cfg = write_cfg(tmp_path, "svf.json", {"svf": svf, "orders": [4],
                                           "x_grid": [0.0], "depth": 2})
    for verb in ("convergence", "integral"):
        assert main([verb, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "dimension" in err


@pytest.mark.parametrize("config", [
    {"svf": {"domain": [0, 1], "pieces": [
        {"disc": {"center": [0, 0], "radius": 1, "eps": 1e-300}}]}},
    {"svf": {"domain": [0, 1], "pieces": [
        {"disc": {"center": [0, 0], "radius": 1e300, "eps": 1e-300}}]}},
    {"fixture": "balls", "eps": 1e-300},
], ids=["svf", "svf-overflow", "balls"])
def test_exit_code_2_oversized_disc_net(tmp_path, capsys, config):
    """A disc net is counted before it is built, so eps 1e-300 (about
    3e600 points) is refused at once instead of never returning."""
    cfg = write_cfg(tmp_path, "disc.json", config)
    assert main(["integral", "--config", cfg]) == 2
    assert "has more than" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["selections", "integral"])
@pytest.mark.parametrize("config, word", [
    ({"fixture": "lines", "depth": 40}, "depth must be at most"),
    ({"svf": {"domain": [-1e308, 1e308], "pieces": [{"curve": ["t"]}]}},
     "domain length"),
], ids=["depth", "domain-overflow"])
def test_exit_code_2_sizes_that_cannot_run(tmp_path, capsys, verb, config,
                                           word):
    """Depth 40 would allocate 2**40 partition nodes, and a domain whose
    length overflows spaces every grid by nan: both are refused before any
    work starts."""
    cfg = write_cfg(tmp_path, "c.json", config)
    assert main([verb, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err and word in captured.err


def test_config_depth_limit_admits_the_deepest_family():
    assert ExperimentConfig.from_dict({"depth": 16}).depth == 16
    top = cli.CONFIG_DEPTH_MAX
    assert ExperimentConfig.from_dict({"depth": top}).depth == top
    with pytest.raises(ConfigError, match="depth"):
        ExperimentConfig.from_dict({"depth": top + 1})


@pytest.mark.parametrize("center,radius,eps", [
    ((0.0, 0.0), 1.0, 0.1), ((-2.0, 2.0), 1.0, 0.02),
    ((2.3, -1.7), 1.0, 0.005), ((0.4, -0.3), 0.37, 0.001),
    ((1e3, -7.5), 2.5, 0.02)])
def test_disc_net_equals_rings_built_one_by_one(center, radius, eps):
    """The rings built in one array pass are, bit for bit, the rings built
    one at a time from np.linspace(0, 2 pi, m_j, endpoint=False)."""
    rings = max(1, math.ceil(radius / eps))
    r = radius * np.arange(1, rings + 1) / rings
    m = 8 * np.maximum(1, np.ceil(2.0 * PI * r / (8.0 * eps))).astype(int)
    want = [np.array([center], dtype=float)]
    for r_j, m_j in zip(r.tolist(), m.tolist()):
        ang = np.linspace(0.0, 2.0 * PI, m_j, endpoint=False)
        want.append(np.column_stack([center[0] + r_j * np.cos(ang),
                                     center[1] + r_j * np.sin(ang)]))
    assert np.array_equal(fx.disc_net(center, radius, eps).points,
                          np.vstack(want))


def test_disc_net_limit_is_its_exact_size():
    """The count that `disc_net` checks is the size of the net it builds."""
    n = len(fx.disc_net((0.0, 0.0), 1.0, 0.1))
    with mock.patch.object(fx, "DISC_NET_MAX", n):
        assert len(fx.disc_net((0.0, 0.0), 1.0, 0.1)) == n
    with mock.patch.object(fx, "DISC_NET_MAX", n - 1), \
            pytest.raises(DescriptionError, match="has more than"):
        fx.disc_net((0.0, 0.0), 1.0, 0.1)


def test_exit_code_2_malformed_svf(tmp_path, capsys):
    svf = {"domain": [-PI, PI], "pieces": [
        {"disc": {"center": [0, 0], "radius": 1, "eps": 0}}]}
    cfg = write_cfg(tmp_path, "svf.json", {"svf": svf, "orders": [4]})
    assert main(["convergence", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_inline_svf_through_cli(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "inline.json",
                    {"svf": {"domain": [-PI, PI],
                             "pieces": [{"points": [[-1.0], [1.0]]}]},
                     "orders": [4], "x_grid": [0.0], "x_seeds": 3,
                     "y_seeds": 2, "depth": 2})
    assert main(["convergence", "--config", cfg]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert float(rows[0].split(",")[2]) < 1e-9


def test_y_seeds_all_covers_the_disc():
    """On balls at eps 0.1 four y-seeds per x_hat measure seed coverage,
    not approximation: at x = 2 (order 8) every seed brings the distance to
    F(x) from 0.87 to 0.026."""
    base = {"fixture": "balls", "eps": 0.1, "orders": [8], "x_grid": [2.0]}
    (_, _, four, _), = cli.run_convergence(ExperimentConfig.from_dict(base))
    (_, _, every, _), = cli.run_convergence(
        ExperimentConfig.from_dict({**base, "y_seeds": "all"}))
    assert four > 0.8
    assert every < 0.05
