"""Experiment harness and CLI: configs, reports, tables, and exit codes."""

import json
import os
import subprocess
import sys
import warnings
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

import bodywave

from bodywave.cli import build_parser, config_from_args, main
from bodywave.materials import FluidField1D, FluidMaterial
from bodywave import coupling
from bodywave.stability import GrowthConfig, empirical_growth_rate, growth_rates
from bodywave.harness import (
    RunConfig,
    format_json,
    format_table,
    run_addedmass_table,
    run_convergence_study,
    run_rigidbody_demo,
    run_simulation,
    run_stability_sweep,
    write_csv_table,
    write_json_report,
)


# -- configuration -------------------------------------------------------------


def test_config_defaults_mirror_reference_setup():
    cfg = RunConfig()
    assert cfg.c_left == sqrt(2.0) and cfg.c_right == sqrt(3.0)
    assert cfg.beta == 10.0 and cfg.x0 == -0.5 and cfg.t_final == 0.75
    mat_l, mat_r = cfg.materials()
    assert mat_l.z == sqrt(2.0) and mat_r.z == sqrt(3.0)


@pytest.mark.parametrize(
    "overrides",
    [
        {"mode": "nope"},
        {"scheme": "third"},
        {"coupling": "magic"},
        {"coupling": "custom"},  # missing alpha_left/alpha_right
        {"mass": -1.0},
        {"cfl": 0.0},
        {"cfl": 1.5},
        {"levels": 0},
        {"t_final": 0.0},
        {"n_cells": 2},
        {"shape": "cube"},
        {"resolution": 4},
        {"domain_length": -2.0},
    ],
)
def test_config_validation_errors(overrides):
    with pytest.raises(ValueError):
        RunConfig(**overrides)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_dict({"mass": 1.0, "bogus": 3})


def test_config_json_round_trip(tmp_path):
    cfg = RunConfig(mode="converge1d", scheme="first", mass=1e-3, levels=3)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    args = build_parser().parse_args(["converge", "--config", str(path)])
    assert config_from_args(args) == cfg


def test_alphas_per_coupling():
    assert RunConfig(coupling="traditional").alphas() == (0.0, 0.0)
    assert RunConfig(coupling="projection").alphas() == (sqrt(2.0), sqrt(3.0))
    cfg = RunConfig(coupling="custom", alpha_left=0.3, alpha_right=0.7)
    assert cfg.alphas() == (0.3, 0.7)


# -- simulation and convergence -------------------------------------------------


def test_simulation_report_contents():
    cfg = RunConfig(scheme="first", n_cells=20, t_final=0.1)
    rep = run_simulation(cfg)
    assert rep["dt"] * rep["n_steps"] == pytest.approx(0.1, abs=1e-15)
    assert rep["courant_right"] <= cfg.cfl * (1.0 + 1e-12)
    assert rep["courant_left"] < rep["courant_right"]  # slower side
    assert not rep["diverged"]
    assert all(np.isfinite(v) for v in rep["errors"].values())
    assert rep["final"]["t"] == pytest.approx(0.1)


def test_runs_convert_fields_only_at_their_ends(monkeypatch):
    """A run stores characteristics: run_simulation and empirical_growth_rate
    convert (v, sigma) to and from them a fixed number of times, however
    many steps they take."""
    calls = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(FluidField1D, "to_characteristics",
                        counting("to", FluidField1D.to_characteristics))
    monkeypatch.setattr(FluidField1D, "from_characteristics",
                        classmethod(counting("from", FluidField1D.from_characteristics.__func__)))

    def count(run):
        calls.clear()
        run()
        return dict(calls)

    mat = FluidMaterial(1.0, sqrt(2.0))
    for scheme in ("first", "second"):
        short = count(lambda: run_simulation(RunConfig(scheme=scheme, n_cells=20, t_final=0.05)))
        long = count(lambda: run_simulation(RunConfig(scheme=scheme, n_cells=20, t_final=0.5)))
        assert short == long and sum(long.values()) <= 8, (scheme, short, long)
        growth = [count(lambda: empirical_growth_rate(
            GrowthConfig(mat, 1e-3, 1e-3, 0.8, mat.z, scheme), n_steps=k))
            for k in (10, 100)]
        assert growth[0] == growth[1] and sum(growth[1].values()) <= 8, (scheme, growth)


def test_sweep_steps_each_scheme_as_one_stack(monkeypatch):
    """A sweep's growth runs advance as one stack per scheme: 2 x 600 stencil
    calls for its 12 runnable rows, and a (v, sigma) conversion count that
    does not grow with the number of steps."""
    stencils, calls = {}, {}

    def counting(name, fn, into=calls):
        def wrapped(*args, **kwargs):
            into[name] = into.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("upwind_step", "lax_wendroff_step"):
        monkeypatch.setattr(coupling, name, counting(name, getattr(coupling, name), stencils))
    run_stability_sweep(RunConfig(mode="stability_sweep", mass=1e-3))
    assert stencils == {"upwind_step": 600, "lax_wendroff_step": 600}

    monkeypatch.setattr(FluidField1D, "to_characteristics",
                        counting("to", FluidField1D.to_characteristics))
    monkeypatch.setattr(FluidField1D, "from_characteristics",
                        classmethod(counting("from", FluidField1D.from_characteristics.__func__)))
    mat = FluidMaterial(1.0, sqrt(2.0))
    configs = [GrowthConfig(mat, 1e-3, f * 1e-3, 0.8, a, scheme)
               for scheme in ("first", "second") for f in (1.0, 2.0) for a in (0.0, mat.z)]
    counts = []
    for n_steps in (10, 100):
        calls.clear()
        growth_rates(configs, n_steps)
        counts.append(dict(calls))
    assert counts[0] == counts[1] and sum(counts[1].values()) <= 8 * len(configs), counts


def test_simulation_error_shrinks_with_grid():
    coarse = run_simulation(RunConfig(scheme="second", n_cells=50, t_final=0.3))
    fine = run_simulation(RunConfig(scheme="second", n_cells=200, t_final=0.3))
    assert fine["errors"]["v_max"] < 0.4 * coarse["errors"]["v_max"]


def test_convergence_study_second_order_rates():
    cfg = RunConfig(mode="converge1d", scheme="second", mass=1.0, levels=3)
    rep = run_convergence_study(cfg)
    assert [lv["n_cells"] for lv in rep["levels"]] == [100, 200, 400]
    assert rep["diverged_levels"] == []
    for key in ("v_max", "sigma_max", "v_body_max"):
        assert len(rep["ratios"][key]) == 2
        assert 1.6 < rep["rates"][key] < 2.2, f"{key}: {rep['rates'][key]}"


def test_convergence_study_flags_divergence():
    # Traditional coupling far beyond its stability bound blows up and the
    # study must say so instead of reporting rates.
    cfg = RunConfig(
        mode="converge1d", scheme="first", coupling="traditional",
        mass=1e-6, levels=2, n_cells=50, t_final=2.0,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        rep = run_convergence_study(cfg)
    assert rep["diverged_levels"] == [0, 1]
    assert all(not np.isfinite(rep["rates"][k]) for k in rep["rates"])


# -- stability sweep ------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_1e3():
    return run_stability_sweep(RunConfig(mode="stability_sweep", mass=1e-3))


def test_stability_sweep_rows_and_agreement(sweep_1e3):
    rep = sweep_1e3
    assert rep["all_agree"]
    by_key = {
        (r["scheme"], r["coupling"], r["mass"], round(r["dt_over_bound"], 3)): r
        for r in rep["rows"]
    }
    grow = by_key[("first", "traditional", 1e-3, 1.1)]
    assert not grow["predicted_stable"] and not grow["measured_stable"]
    assert grow["measured_rate"] == pytest.approx(1.527098, abs=1e-4)
    assert grow["predicted"] == pytest.approx(grow["measured_rate"], rel=1e-6)

    ok = by_key[("first", "projection", 1e-3, 2.0)]
    assert ok["predicted_stable"] and ok["measured_stable"]

    refused = by_key[("first", "traditional", 0.0, 2.0)]
    assert refused["measured_rate"] is None and refused["agree"]
    assert refused["predicted"] == "unbounded"

    second_bad = by_key[("second", "traditional", 1e-3, 0.5)]
    assert second_bad["predicted"] == "2 unstable modes"
    assert second_bad["measured_rate"] == pytest.approx(1.8257, abs=1e-3)

    second_ok = by_key[("second", "projection", 1e-3, 10.0)]
    assert second_ok["predicted_stable"] and second_ok["measured_stable"]


def test_sweep_marks_the_rows_whose_rate_is_compared(sweep_1e3):
    """The 5 % rate check applies only where a real predicted root dominates:
    the two unstable first-order traditional rows.  Every other row's
    measured rate certifies the verdict alone."""
    rows = sweep_1e3["rows"]
    assert all(type(r["rate_compared"]) is bool for r in rows)
    compared = [r for r in rows if r["rate_compared"]]
    assert [(r["scheme"], r["coupling"], r["dt_over_bound"]) for r in compared] == [
        ("first", "traditional", pytest.approx(1.1)), ("first", "traditional", pytest.approx(2.0))]
    for r in compared:
        assert r["mass"] > 0.0 and not r["predicted_stable"]
        assert abs(r["measured_rate"] - r["predicted"]) <= 0.05 * r["predicted"]


# -- added-mass table and demo ----------------------------------------------------


def test_addedmass_table_reference_checks():
    rep = run_addedmass_table(RunConfig(mode="addedmass_table", resolution=512))
    assert rep["all_ok"], [r for r in rep["rows"] if not r["ok"]]
    by_entry = {(r["shape"], r["params"], r["entry"]): r for r in rep["rows"]}
    ell = by_entry[("ellipse", "a=1 b=0.5", "avv_11")]
    assert ell["reference"] == 1.26 and ell["abs_diff"] < 5e-3
    sph = by_entry[("sphere", "a=1", "avv_11")]
    assert sph["rel_diff"] < 1e-12
    star = by_entry[("starfish", "arms=5", "symmetry_drift")]
    assert star["ok"]


def test_addedmass_table_single_shape():
    rep = run_addedmass_table(RunConfig(mode="addedmass_table", shape="sphere", resolution=64))
    assert {r["shape"] for r in rep["rows"]} == {"sphere"}
    assert rep["all_ok"]


def test_rigidbody_demo_history():
    rep = run_rigidbody_demo(RunConfig(mode="rigidbody3d_demo"))
    hist = rep["history"]
    assert len(hist["t"]) == rep["n_steps"] + 1
    assert rep["max_e_drift"] < 1e-10
    assert abs(hist["v"][-1][0]) > 1e-3  # the forcing actually moved the body
    assert hist["v"][0] == [0.0, 0.0, 0.0]


# -- report writers --------------------------------------------------------------


def test_write_csv_table_deterministic(tmp_path):
    rep = run_addedmass_table(RunConfig(mode="addedmass_table", shape="ellipse", resolution=64))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv_table(str(p1), rep["rows"], rep["config"])
    write_csv_table(str(p2), rep["rows"], rep["config"])
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    echo = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln.startswith("# mode = ") for ln in echo)
    header = lines[len(echo)]
    assert header.split(",")[:3] == ["shape", "params", "entry"]


def test_write_csv_table_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        write_csv_table(str(tmp_path / "x.csv"), [], {})


def test_write_json_report_parses_back(tmp_path):
    rep = run_simulation(RunConfig(scheme="first", n_cells=16, t_final=0.05))
    path = tmp_path / "rep.json"
    write_json_report(str(path), rep)
    loaded = json.loads(path.read_text())
    assert loaded["config"]["n_cells"] == 16
    assert loaded["errors"]["v_max"] == pytest.approx(rep["errors"]["v_max"])
    assert loaded["diverged"] is False  # a bool, not 0


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_format_json_writes_non_finite_floats_as_null():
    text = format_json({"a": float("inf"), "b": [np.nan, 1.5], "c": np.float64(-np.inf)})
    assert json.loads(text, parse_constant=_reject_constant) == {"a": None, "b": [None, 1.5],
                                                                 "c": None}


def test_format_table_rendering():
    assert format_table([]) == "(empty)"
    text = format_table([{"a": 1.5, "b": None}, {"a": 2.0, "b": "x"}])
    lines = text.splitlines()
    assert lines[0].split() == ["a", "b"]
    assert "-" in lines[1]


# -- CLI --------------------------------------------------------------------------


def test_cli_simulate_writes_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["simulate", "--cells", "16", "--tfinal", "0.05", "--out", str(out)])
    assert code == 0
    assert "errors vs exact solution" in capsys.readouterr().out
    assert json.loads(out.read_text())["config"]["n_cells"] == 16


def test_cli_flag_overrides_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mass": 5.0, "n_cells": 16, "t_final": 0.05}))
    out = tmp_path / "rep.json"
    code = main(["simulate", "--config", str(cfg_path), "--mass", "2.0", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["config"]["mass"] == 2.0


def test_cli_validation_error_exits_2(capsys):
    assert main(["simulate", "--cfl", "1.5"]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_unknown_config_key_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bogus": 1}))
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["[1, 2]", "{not json", None])
def test_cli_bad_config_file_exits_2(tmp_path, capsys, content):
    cfg_path = tmp_path / "cfg.json"
    if content is not None:
        cfg_path.write_text(content)
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_json_to_stdout_appends_to_redirected_file(tmp_path):
    """`bodywave simulate >> log.txt` keeps what log.txt already held."""
    log = tmp_path / "log.txt"
    log.write_text("earlier line\n")
    env = dict(os.environ, PYTHONPATH=str(Path(bodywave.__file__).parents[1]))
    with open(log, "a") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "bodywave.cli", "simulate", "--cells", "16", "--tfinal", "0.05"],
            stdout=fh, env=env, timeout=120,
        )
    assert proc.returncode == 0
    text = log.read_text()
    assert text.startswith("earlier line\n")
    report = json.JSONDecoder().raw_decode(text[len("earlier line\n"):])[0]
    assert report["config"]["n_cells"] == 16 and report["diverged"] is False


def test_cli_numerical_failure_exits_3(capsys):
    code = main([
        "simulate", "--coupling", "traditional", "--mass", "0",
        "--cells", "16", "--tfinal", "0.05",
    ])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_contour_failure_exits_3(monkeypatch, capsys):
    """A mode count that cannot be certified is a numerical failure: here the
    determinant vanishes at A = 1.01, a point of the inner contour circle."""
    monkeypatch.setattr(bodywave.harness, "second_order_determinant", lambda A, q: A - 1.01)
    assert main(["stability", "--mass", "1", "--seed", "3"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: ContourFailure" in err and "vanished" in err


def test_cli_stability_refuses_massless_body(capsys):
    """Every sweep step is a multiple of the traditional bound, which is 0 for
    a massless body; the refusal names that reason, not a step size the user
    never set."""
    assert main(["stability", "--mass", "0"]) == 2
    err = capsys.readouterr().err
    assert "needs mass > 0" in err and "massless rows" in err
    assert "dt must be" not in err


def test_cli_addedmass_stdout_table(capsys):
    code = main(["addedmass", "--shape", "sphere", "--resolution", "64"])
    assert code == 0
    out = capsys.readouterr().out
    assert "avv_11" in out
    assert "all reference checks passed: True" in out


def test_cli_converge_reports_rates(capsys):
    code = main([
        "converge", "--cells", "16", "--levels", "2", "--tfinal", "0.05",
        "--scheme", "second",
    ])
    assert code == 0
    assert "fitted rates" in capsys.readouterr().err  # stdout holds the JSON report


def test_cli_json_to_stdout_is_the_whole_stdout(capsys):
    """`bodywave simulate > r.json` gives a file that parses as JSON; the
    summary lines go to stderr."""
    assert main(["simulate", "--cells", "16", "--tfinal", "0.05"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["config"]["n_cells"] == 16
    assert "errors vs exact solution" in captured.err


def test_cli_diverged_report_is_strict_json(tmp_path, capsys):
    out = tmp_path / "div.json"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["converge", "--coupling", "traditional", "--mass", "1e-6", "--scheme",
                     "first", "--cells", "50", "--levels", "2", "--tfinal", "2.0",
                     "--out", str(out)])
    assert code == 0
    assert "fitted rates" in capsys.readouterr().out  # --out keeps the summary on stdout
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["diverged_levels"] == [0, 1]
    assert all(lv["diverged"] for lv in report["levels"])
    assert all(rate is None for rate in report["rates"].values())


def test_cli_diverged_run_emits_no_warnings(tmp_path):
    # The report flags the divergence; numpy overflow/invalid warnings from
    # the blown-up fields and the inf/inf level ratios must not reach stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["converge", "--coupling", "traditional", "--mass", "1e-6", "--scheme",
                     "first", "--cells", "50", "--levels", "2", "--tfinal", "2.0",
                     "--out", str(tmp_path / "div.json")])
    assert code == 0
    report = json.loads((tmp_path / "div.json").read_text())
    assert all(r is None for ratios in report["ratios"].values() for r in ratios)


def test_cli_simulate_dense_fluids_is_not_reported_diverged(tmp_path):
    # rho = 100 on both sides makes z/(m beta c) large at m = 0.5; the exact
    # solution the errors are measured against must stay finite there.
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "rep.json"
    cfg_path.write_text(json.dumps({"rho_left": 100.0, "rho_right": 100.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--config", str(cfg_path), "--mass", "0.5", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["diverged"] is False
    assert all(v is not None and np.isfinite(v) for v in report["errors"].values())
