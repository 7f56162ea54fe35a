"""Experiment harness and CLI: configs, reports, tables, and exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from math import sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bodywave

from bodywave.cli import (SUBCOMMAND_MODES, build_parser, config_from_args, format_json, format_table,
                          main, write_csv_table)
from bodywave.materials import FluidField1D, FluidMaterial
from bodywave import coupling
from bodywave.stability import GrowthConfig, empirical_growth_rate, growth_rates
from bodywave.addedmass import (DegenerateGeometry, Ellipsoid, UnsupportedShape,
                                added_mass_tensors, sample_surface)
from bodywave.coupling import SingularBodyUpdate
from bodywave.exact import DomainError
from bodywave.rigidbody3d import NewtonDivergence, NonphysicalPressure, SingularStage
from bodywave.schemes import CflViolation, Characteristics
from bodywave.stability import ContourFailure
from bodywave.harness import (
    ADDED_MASS_REFERENCES,
    COUPLINGS,
    ELLIPSOID_RESOLUTION,
    MAX_CELLS,
    MAX_STEPS,
    RUNNERS,
    SCHEMES,
    SWEEP_ROWS,
    RunConfig,
    run_addedmass_table,
    run_convergence_study,
    run_rigidbody_demo,
    run_simulation,
    run_stability_sweep,
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


def test_sweep_steps_its_runs_as_one_stack(monkeypatch):
    """A sweep's growth runs advance as one stack per sweep: one stencil call
    per order per step, 600 of each for its 12 runnable rows, and a (v, sigma)
    conversion count that does not grow with the number of steps."""
    stencils, calls, stacks = {}, {}, []

    def counting(name, fn, into=calls):
        def wrapped(*args, **kwargs):
            into[name] = into.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("upwind_step", "lax_wendroff_step"):
        monkeypatch.setattr(coupling, name, counting(name, getattr(coupling, name), stencils))
    real_stack = Characteristics.stack
    monkeypatch.setattr(Characteristics, "stack", classmethod(
        lambda cls, members: stacks.append(len(members)) or real_stack(members)))
    run_stability_sweep(RunConfig(mode="stability_sweep", mass=1e-3))
    assert stencils == {"upwind_step": 600, "lax_wendroff_step": 600}
    assert stacks == [12]

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


def test_simulate_reports_the_body_position_error_at_its_order():
    """x_body_error = |x_body - (U(0, t) - U0(0))| converges at m = 1 over
    n = 100..800: the second order's fitted rate lies in [1.8, 2.2], and the
    first order's error falls at every halving."""
    grids = [100 * 2**j for j in range(4)]
    errors = {scheme: [bodywave.run_mode(RunConfig(scheme=scheme, mass=1.0, n_cells=n))["x_body_error"]
                       for n in grids] for scheme in ("first", "second")}
    rate = -np.polyfit(np.log(grids), np.log(errors["second"]), 1)[0]
    assert 1.8 <= rate <= 2.2, errors["second"]
    assert all(a > b for a, b in zip(errors["first"], errors["first"][1:])), errors["first"]


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


def test_addedmass_table_ellipsoid_count_is_converged():
    """Each ellipsoid of the table, at the table's per-dimension count, agrees
    with its value at 256 to 1e-12 of its composite's largest |entry|."""
    bodies = [body for _, _, body, _, _ in ADDED_MASS_REFERENCES if isinstance(body, Ellipsoid)]
    assert len(bodies) == 3
    for body in bodies:
        fine = added_mass_tensors(sample_surface(body, 1.0, 256)).composite
        used = added_mass_tensors(sample_surface(body, 1.0, ELLIPSOID_RESOLUTION)).composite
        assert np.max(np.abs(used - fine)) <= 1e-12 * np.max(np.abs(fine)), body


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


@pytest.mark.parametrize("argv", [["simulate", "--cells", "16", "--tfinal", "0.05"], ["rb3d", "--mass", "0.5"]],
                         ids=["simulate", "rb3d"])
def test_cli_json_report_deterministic(tmp_path, capsys, argv):
    """The JSON counterpart of test_write_csv_table_deterministic: one config
    written twice to the same --out gives the same bytes."""
    path = tmp_path / "rep.json"
    written = []
    for _ in range(2):
        assert main([*argv, "--out", str(path)]) == 0
        written.append(path.read_bytes())
    assert written[0] == written[1]
    assert json.loads(written[0])["config"]["out"] == str(path)


def test_cli_json_out_parses_back(tmp_path, capsys):
    rep = run_simulation(RunConfig(scheme="first", n_cells=16, t_final=0.05))
    path = tmp_path / "rep.json"
    assert main(["simulate", "--scheme", "first", "--cells", "16", "--tfinal", "0.05", "--out", str(path)]) == 0
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


@pytest.mark.parametrize("command", ["simulate", "converge", "stability", "addedmass", "rb3d"])
@pytest.mark.parametrize("mass", ["nan", "inf"])
def test_cli_non_finite_mass_is_a_config_error(command, mass, capsys):
    """A NaN or infinite mass is refused up front with the mass named, not
    later by an SVD, a body update or a grid spacing."""
    assert main([command, "--mass", mass]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"mass must be finite and >= 0, got {mass}" in err


@pytest.mark.parametrize("argv,config,message", [
    (["simulate", "--tfinal", "inf"], None, "t_final must be finite, got inf"),
    (["simulate"], '{"domain_length": Infinity}', "domain_length must be finite, got inf"),
    (["simulate", "--coupling", "custom", "--alpha-left", "nan", "--alpha-right", "1"], None,
     "alpha_left must be finite, got nan"),
    (["stability", "--seed", "-1"], None, "seed must be >= 0, got -1"),
    (["simulate"], '{"mass": "1"}', "mass must be float, got '1'"),
    (["simulate"], '{"n_cells": 10.5}', "n_cells must be int, got 10.5"),
    (["simulate"], '{"levels": true}', "levels must be int, got True"),
    (["simulate"], '{"mass": 1%s}' % ("0" * 400),
     "mass must be finite, got an integer larger than any float"),
    (["converge"], '{"t_final": 1%s}' % ("0" * 400),
     "t_final must be finite, got an integer larger than any float"),
    (["simulate"], '{"n_cells": 1%s}' % ("0" * 400),
     "n_cells must be finite, got an integer larger than any float"),
    (["addedmass"], '{"resolution": 1%s}' % ("0" * 400),
     "resolution must be finite, got an integer larger than any float"),
    (["converge"], '{"levels": 40}', "n_cells * 2**(levels - 1), the finest grid per side, "
     "must be <= 1048576, got n_cells 100 and levels 40"),
    (["converge", "--cells", "3", "--levels", "20"], None,
     "the finest grid per side, must be <= 1048576, got n_cells 3 and levels 20"),
    (["simulate"], '{"n_cells": 1000000000000}',
     "n_cells, the finest grid per side, must be <= 1048576, got n_cells 1000000000000\n"),
    (["simulate", "--tfinal", "1e300", "--cfl", "1e-300"], None,
     "the steps on the finest grid, must be <= 1048576, got t_final 1e+300, cfl 1e-300, "
     "n_cells 100 and domain_length 2.0\n"),
    (["converge", "--levels", "3", "--tfinal", "1e300", "--cfl", "1e-300"], None,
     "the steps on the finest grid, must be <= 1048576, got t_final 1e+300, cfl 1e-300, "
     "n_cells 100, levels 3 and domain_length 2.0\n"),
    (["simulate", "--cells", "10", "--cfl", "1e-300"], None,
     "the steps on the finest grid, must be <= 1048576, got t_final 0.75, cfl 1e-300, n_cells 10"),
    (["simulate"], '{"c_left": 1e-200}', "must be normal floats, got rho 1.0 and c 1e-200"),
    (["stability"], '{"c_left": 1e-200}', "must be normal floats, got rho 1.0 and c 1e-200"),
    (["simulate"], '{"rho_left": 1e300, "c_left": 1e10}',
     "must be normal floats, got rho 1e+300 and c 10000000000.0"),
    (["simulate"], '{"rho_left": 1e-320}', "must be normal floats, got rho 1e-320 and c 1.41"),
], ids=["tfinal-inf", "domain-length-inf", "alpha-nan", "seed-negative", "mass-str",
        "cells-float", "levels-bool", "mass-int-too-large", "tfinal-int-too-large",
        "cells-int-too-large", "resolution-int-too-large", "levels-finest-grid-too-large",
        "levels-one-past-the-cap", "cells-finest-grid-too-large", "steps-past-any-float",
        "converge-steps-past-any-float", "steps-past-the-cap", "kappa-underflows", "kappa-underflows-stability", "z-overflows",
        "z-subnormal"])
def test_cli_bad_config_value_exits_2_naming_the_field(tmp_path, capsys, argv, config, message):
    """Each value is refused by the config loader with the field named, not
    later by a traceback, a grid size, numpy's seeding, an all-null report,
    a run on a fractional grid or a run of some 1e300 steps."""
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err


def test_config_refuses_levels_larger_than_any_float():
    """Checked on the loader, not through `converge`: before the check such
    a value started a study whose grids kept doubling."""
    with pytest.raises(ValueError, match="levels must be finite, got an integer larger than any float"):
        RunConfig.from_dict({"mode": "converge1d", "levels": 10 ** 400})


def test_config_refuses_a_huge_levels_at_once_and_accepts_the_cap():
    """levels 10**300 is refused by integer arithmetic, without forming
    2**(levels - 1); a finest grid of exactly MAX_CELLS per side is accepted."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"finest grid per side, must be <= 1048576"):
        RunConfig.from_dict({"mode": "converge1d", "levels": 10 ** 300})
    assert time.perf_counter() - start < 0.1
    assert MAX_CELLS == 2 ** 20
    for n_cells, levels in ((MAX_CELLS, 1), (MAX_CELLS // 4, 3), (3, 19)):
        RunConfig.from_dict({"mode": "converge1d", "n_cells": n_cells, "levels": levels})
    with pytest.raises(ValueError, match="finest grid"):
        RunConfig.from_dict({"mode": "converge1d", "n_cells": MAX_CELLS // 4 + 1, "levels": 3})


def test_config_counts_levels_toward_the_caps_only_in_a_study():
    """simulate1d runs one grid of n_cells per side, so the levels that only
    converge1d refines by neither refuse its grid nor count toward its steps."""
    cap = {"c_left": 1.0, "c_right": 1.0, "cfl": 1.0, "domain_length": 1.0, "n_cells": 1024,
           "t_final": 1024.0, "levels": 3}  # exactly MAX_STEPS steps on the one grid
    for values, message in (({"n_cells": 100000, "levels": 5, "t_final": 1e-4}, "finest grid per side"),
                            (cap, "steps on the finest grid")):
        RunConfig.from_dict({"mode": "simulate1d", **values})
        with pytest.raises(ValueError, match=message):
            RunConfig.from_dict({"mode": "converge1d", **values})


@pytest.mark.parametrize("argv", [["stability"], ["addedmass", "--shape", "ellipse", "--resolution", "64"],
                                  ["rb3d"]], ids=["stability", "addedmass", "rb3d"])
def test_cli_modes_without_a_grid_ignore_the_grid_cap(capsys, argv):
    """The sweep builds its growth runs at GrowthConfig's own n_cells, and the
    tables and the 3D demo build no grid, so n_cells past MAX_CELLS runs."""
    assert main([*argv, "--cells", "2000000"]) == 0
    assert "config error" not in capsys.readouterr().err


def test_config_refuses_one_step_past_the_cap_at_once_and_accepts_the_cap():
    """dt = cfl * dx / max(c) is 2**-10 here, so t_final = 1024 asks for
    exactly MAX_STEPS steps; in a study the finest level's steps count."""
    assert MAX_STEPS == 2 ** 20
    cap = {"c_left": 1.0, "c_right": 1.0, "cfl": 1.0, "domain_length": 1.0, "n_cells": 1024,
           "t_final": 1024.0}
    RunConfig.from_dict(cap)
    RunConfig.from_dict({**cap, "mode": "converge1d", "n_cells": 256, "levels": 3})
    start = time.perf_counter()
    for past in ({**cap, "t_final": 1024.0 + 2.0 ** -10},
                 {**cap, "mode": "converge1d", "n_cells": 256, "levels": 3, "t_final": 1024.0 + 2.0 ** -10}):
        with pytest.raises(ValueError, match="t_final / dt, the steps on the finest grid, must be <= 1048576"):
            RunConfig.from_dict(past)
    assert time.perf_counter() - start < 0.1


def test_every_parser_option_is_a_config_field():
    """config_from_args copies every option into RunConfig, so each one must
    name a field; a new flag cannot bypass the loader's checks."""
    fields = set(RunConfig.__dataclass_fields__)
    for command in SUBCOMMAND_MODES:
        dests = set(vars(build_parser().parse_args([command]))) - {"command", "config"}
        assert dests and dests <= fields, (command, dests - fields)


def test_one_mode_table_serves_the_cli_the_config_and_the_dispatch():
    """Every subcommand runs a mode of harness.RUNNERS, and RunConfig names
    that table's modes, in its order, when it refuses one."""
    assert all(mode in RUNNERS for mode in SUBCOMMAND_MODES.values())
    with pytest.raises(ValueError) as err:
        RunConfig(mode="nope")
    assert str(err.value) == ("mode must be one of ('simulate1d', 'converge1d', 'stability_sweep', "
                              "'addedmass_table', 'rigidbody3d_demo'), got 'nope'")


def test_public_surface_is_pinned():
    """bodywave.__all__ changes only on purpose, and every name resolves."""
    assert sorted(bodywave.__all__) == [
        "AddedMassTensors", "BodyInertia", "CflViolation", "CoupledState", "DIRKTableau",
        "Ellipse", "Ellipsoid", "FluidField1D", "FluidMaterial", "Grid1D", "GrowthConfig",
        "ModelProblem", "PartialForcing", "RigidBodyState3D", "RunConfig", "SingularBodyUpdate",
        "StabilityQuery", "Starfish", "added_mass_analytic", "added_mass_tensors",
        "body_displacement_exact", "body_velocity_exact", "count_unstable_modes", "dirk_step",
        "empirical_growth_rate", "field_exact", "growth_rates", "lax_wendroff_step",
        "max_stable_dt_traditional", "project_surface_state", "roots_first_order_projection",
        "roots_first_order_traditional", "run_mode", "sample_surface", "second_order_determinant",
        "step_algorithm1", "step_algorithm2", "upwind_step",
    ]
    for name in bodywave.__all__:
        assert getattr(bodywave, name) is not None, name


def test_config_accepts_an_int_in_a_float_field_and_none_only_where_optional():
    assert RunConfig(mass=2, t_final=1).mass == 2
    assert RunConfig(alpha_left=None, out=None).out is None
    with pytest.raises(ValueError, match="mass must be float, got None"):
        RunConfig(mass=None)


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


@pytest.mark.parametrize("config, message", [
    ('{"beta": -1}', "validation error: beta must be > 0, got -1"),
    ('{"x0": 0.5}', "validation error: pulse center x0 must be < 0, got 0.5"),
], ids=["beta-negative", "x0-positive"])
def test_cli_bad_pulse_exits_2_naming_the_field(tmp_path, capsys, config, message):
    """The pulse is checked where the model problem is built, not by the
    config loader, and still ends in exit 2 with the field named."""
    (tmp_path / "cfg.json").write_text(config)
    assert main(["simulate", "--cells", "10", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "rep.json")]) == 2
    assert capsys.readouterr().err.strip() == message


def test_cli_stdout_closed_by_the_reader_exits_0_quietly():
    """`bodywave stability | head -0`: the reader is gone before the CSV is
    written, and the run still exits 0 with nothing on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(bodywave.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "bodywave.cli", "stability", "--mass", "1e-3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0 and err == b""


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


def _scipy_modules_after(*steps: str) -> list:
    """The scipy and numpy.polynomial modules loaded after each of `steps`
    has run, in turn, in one fresh interpreter: one sorted list per step."""
    env = dict(os.environ, PYTHONPATH=str(Path(bodywave.__file__).parents[1]))
    report = ("\nprint('scipy modules:', json.dumps(sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial'))))\n")
    probe = "import json, sys\n" + "".join(step + report for step in steps)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line.removeprefix("scipy modules:"))
            for line in proc.stdout.splitlines() if line.startswith("scipy modules:")]


def test_cli_start_up_loads_no_scipy():
    """scipy is imported by the functions that call it, and the ellipsoid's
    Gauss-Legendre rule comes from numpy.linalg, so building the CLI parser
    costs no scipy or numpy.polynomial import."""
    assert _scipy_modules_after("import bodywave, bodywave.cli; bodywave.cli.build_parser()") == [[]]


def test_no_mode_loads_scipy(tmp_path):
    """All five modes run on numpy alone: numpy.linalg is all the LAPACK the
    rigid body and the ellipsoid's quadrature rule need, and the exact solution
    takes erfc and erf from the math module, so a fresh interpreter that runs
    every mode ends with no scipy or numpy.polynomial module loaded.  The
    converge run's light mass takes erfcx's far branch."""
    def run(*argv):
        out = str(tmp_path / f"{argv[0]}.out")
        return f"assert bodywave.cli.main({[*argv, '--out', out]!r}) == 0"
    assert _scipy_modules_after("import bodywave.cli; " + "; ".join([
        run("simulate", "--cells", "10", "--tfinal", "0.05"),
        run("converge", "--mass", "1e-6", "--cells", "10", "--levels", "2", "--tfinal", "0.05"),
        run("stability", "--mass", "1e-3", "--seed", "5"),
        run("addedmass", "--shape", "sphere", "--resolution", "16"),
        run("rb3d", "--mass", "0.5")])) == [[]]


@pytest.mark.parametrize("argv, out", [
    (["simulate", "--cells", "10", "--tfinal", "0.05"], "missing/r.json"),
    (["addedmass", "--shape", "sphere", "--resolution", "16"], "missing/t.csv"),
    (["simulate", "--cells", "10", "--tfinal", "0.05"], "."),
], ids=["json-missing-dir", "csv-missing-dir", "directory"])
def test_cli_unwritable_out_is_an_output_error(tmp_path, capsys, argv, out):
    assert main([*argv, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and len(err.splitlines()) == 1, err


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


@pytest.mark.parametrize("cls, base", [
    (CflViolation, ValueError), (SingularBodyUpdate, ValueError), (SingularStage, RuntimeError),
    (NewtonDivergence, RuntimeError), (NonphysicalPressure, ValueError), (DomainError, ValueError),
    (DegenerateGeometry, ValueError), (UnsupportedShape, ValueError),
    (ContourFailure, ArithmeticError), (FloatingPointError, ArithmeticError),
], ids=lambda v: v.__name__)
def test_each_numerical_failure_type_is_an_arithmetic_error_and_keeps_its_base(cls, base):
    """The CLI's exit 3 is `except ArithmeticError`; library code that
    catches the old base still catches each type."""
    assert issubclass(cls, ArithmeticError) and issubclass(cls, base)


def test_cli_any_arithmetic_error_exits_3_on_one_line(monkeypatch, capsys):
    """An arithmetic error of no solver type, here a ZeroDivisionError in a
    runner, ends in one named stderr line, not a traceback with exit 1."""
    def divide_by_zero(cfg):
        return 1.0 / 0.0

    monkeypatch.setitem(bodywave.harness.RUNNERS, "simulate1d", divide_by_zero)
    assert main(["simulate", "--cells", "10"]) == 3
    assert capsys.readouterr().err == "numerical failure: ZeroDivisionError: float division by zero\n"


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


@pytest.mark.parametrize("mass", ["1e153", "1.7e308"])
def test_cli_simulate_heavy_body_exits_0(tmp_path, mass):
    """A body heavier than about 4e152, where (2 c beta m)^2 is past the
    largest float, stays at rest, as the exact solution says."""
    out = tmp_path / "rep.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--mass", mass, "--cells", "10", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["diverged"] is False and report["errors"]["v_body_max"] == 0.0


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


@pytest.mark.parametrize("rho", [1e300, 1e307])
def test_cli_simulate_huge_density_is_bounded_under_projection(tmp_path, rho):
    """The projection coupling is stable at any density: at rho_left = 1e300
    (z about 1.4e300) or 1e307 the run stays bounded with five finite errors
    and no warning.  The traditional coupling's bound m (4 - lambda)/(z lambda)
    is about 3e-300 or less there, so it diverges, as it should."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"rho_left": rho}))
    reports = {}
    for coupling in ("projection", "traditional"):
        out = tmp_path / f"{coupling}.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["simulate", "--cells", "10", "--tfinal", "1e-3", "--coupling", coupling,
                         "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        reports[coupling] = json.loads(out.read_text())
    errors = reports["projection"]["errors"]
    assert reports["projection"]["diverged"] is False and len(errors) == 5
    assert all(v is not None and np.isfinite(v) for v in errors.values())
    assert reports["traditional"]["diverged"] is True


@pytest.mark.parametrize("values", [{"rho_left": 1.7e308, "c_left": 1e-200}, {"rho_left": 1e300},
                                    {"rho_left": 1e307}])
def test_cli_sweep_at_huge_constants_measures_every_row(tmp_path, values):
    """At rho_left = 1.7e308 and c_left = 1e-200 (z about 1.7e108, c z about
    1.7e-92), at rho_left = 1e300 (c z about 2e300) and at rho_left = 1e307,
    the sweep measures every row, agrees with its predictions and warns
    nothing: each growth run is posed at unit c and z, with the material
    only in its lambda, alpha/z and m/(z dt), so its interface matrix and
    state stay far from the ends of the float range."""
    cfg_path, out, stdout = tmp_path / "cfg.json", tmp_path / "sweep.csv", io.StringIO()
    cfg_path.write_text(json.dumps(values))
    with warnings.catch_warnings(), redirect_stdout(stdout):
        warnings.simplefilter("error")
        code = main(["stability", "--seed", "5", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0 and "prediction/measurement agreement: True" in stdout.getvalue()
    assert "nan" not in out.read_text()


@pytest.mark.parametrize("values,code", [({"mass": 5e-324}, 2), ({"mass": 1e-309}, 2),
                                         ({"mass": 1e-320, "rho_right": 1e150}, 2), ({"mass": 1e-300}, 0)])
def test_cli_sweep_needs_a_normal_mass(tmp_path, capsys, values, code):
    """Below the smallest normal float the sweep's steps, multiples of the
    traditional bound m (4 - lambda)/(z lambda), are not normal floats, and
    the second-order prediction overflowed in m/(dt z) and exited 3.  Such a
    mass is refused with exit 2, naming `mass`, before any warning; a light
    normal mass is swept and agrees."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(values))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["stability", "--config", str(cfg_path), "--out", str(tmp_path / "sweep.csv")]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert "the stability sweep needs mass > 0 and normal (>= 2.22507e-308)" in err
    else:
        assert "prediction/measurement agreement: True" in out


def _swept_rows(*args: str) -> list[dict]:
    """The rows of `bodywave stability *args --out <csv>`, which must exit 0,
    agree and warn nothing, as the CSV's strings."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        with warnings.catch_warnings(), redirect_stdout(io.StringIO()) as stdout:
            warnings.simplefilter("error")
            assert main(["stability", *args, "--out", str(out)]) == 0
        assert "prediction/measurement agreement: True" in stdout.getvalue()
        return list(csv.DictReader(ln for ln in out.read_text().splitlines() if not ln.startswith("# ")))


def test_cli_sweep_is_scale_free_at_every_mass():
    """At --cfl 1e-300 the sweep's steps are about 4 m/(z 1e-300), and a grid
    spacing c dt/lambda passed the largest float at m = 1e-6 and 1.  A growth
    run is posed at dt = 1 and dx = 1/lambda, so every mass sweeps the same
    problem: the predictions and verdicts are identical at m = 1e-300, 1e-6
    and 1, and the measured rates agree to 1e-12."""
    def fixed(row):  # every column but the mass, the step and the measured rate
        return {k: v for k, v in row.items() if k not in ("mass", "dt", "measured_rate")}

    base, *others = (_swept_rows("--cfl", "1e-300", "--seed", "5", "--mass", m) for m in ("1e-300", "1e-6", "1"))
    for rows in others:
        for row, ref in zip(rows, base, strict=True):
            assert fixed(row) == fixed(ref)
            if ref["measured_rate"]:
                assert float(row["measured_rate"]) == pytest.approx(float(ref["measured_rate"]), rel=1e-12, abs=0.0)
            else:
                assert row["measured_rate"] == ""


def test_cli_sweep_with_a_subnormal_step_meets_its_roots(tmp_path):
    """At rho_left = 1e307 and mass 1e-6 the sweep's steps are subnormal
    (about 2.8e-313) and keep about 11 digits.  The prediction and the growth
    run read the same rounded step: the run's body mass m/(z dt) is one
    division, with no subnormal m/z and no grid spacing c dt/lambda, so each
    compared rate meets its predicted root to 1e-13."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"rho_left": 1e307}))
    rows = [row for row in _swept_rows("--config", str(cfg_path), "--mass", "1e-6", "--seed", "5")
            if row["rate_compared"] == "True"]
    assert len(rows) == 2 and all(float(row["dt"]) < sys.float_info.min for row in rows)
    for row in rows:
        assert float(row["measured_rate"]) == pytest.approx(float(row["predicted"]), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("args,fields", [
    (["--cfl", "5e-324", "--mass", "1e-300"], ["cfl"]),
    (["--cfl", "1e-310", "--mass", "1"], ["cfl"]),
    (["--mass", "1e307"], ["mass", "cfl"]),
], ids=["cfl-smallest-subnormal", "cfl-subnormal", "largest-step-past-any-float"])
def test_cli_sweep_refusal_names_the_swept_field(capsys, args, fields):
    """A subnormal cfl, where the growth run's dx = 1/lambda passes the
    largest float, and a mass whose largest sweep step, 10x the traditional
    bound, passes it, exit 2 naming the fields given, not a dx or dt that
    the config does not have."""
    assert main(["stability", *args]) == 2
    err = capsys.readouterr().err
    assert all(f"{field} " in err for field in fields) and "dx" not in err and "dt must" not in err, err


@pytest.mark.parametrize("mass", ["1e-200", "1e-320", "5e-324"])
def test_cli_simulate_light_body_exits_0(tmp_path, mass):
    """A body lighter than about 1e-154, where Zt/(2 c beta m) overflowed,
    moves as the massless body after its initial layer."""
    out = tmp_path / "rep.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--mass", mass, "--cells", "10", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["diverged"] is False
    assert all(v is not None and np.isfinite(v) for v in report["errors"].values())


@pytest.mark.parametrize("mass", [1.0, 0.0, 1e-30])
def test_cli_simulate_narrow_pulse_warns_nothing(tmp_path, mass):
    """At beta = 1e300 the pulse's Gaussian overflows in its exponent away
    from the centre, where exp(-inf) = 0 is its limit; no warning follows."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"beta": 1e300, "mass": mass}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["simulate", "--cells", "10", "--tfinal", "1e-3", "--config", str(cfg_path),
                     "--out", str(tmp_path / "rep.json")])
    assert code == 0


def _report_types(obj) -> set:
    if isinstance(obj, dict):
        return {dict}.union(*map(_report_types, obj.values()))
    if isinstance(obj, list):
        return {list}.union(*map(_report_types, obj))
    return {type(obj)}


def test_reports_hold_only_json_types(sweep_1e3):
    """The report writers handle dict, list, str, int, float, bool and None
    alone, so no runner may put a numpy scalar or array into a report."""
    with np.errstate(over="ignore", invalid="ignore"):
        reports = [
            run_simulation(RunConfig(n_cells=10, t_final=0.05)),
            run_convergence_study(RunConfig(mode="converge1d", n_cells=10, levels=2, t_final=0.05)),
            run_convergence_study(RunConfig(mode="converge1d", scheme="first", coupling="traditional",
                                            mass=1e-6, n_cells=50, levels=2, t_final=2.0)),
            sweep_1e3,
            run_addedmass_table(RunConfig(mode="addedmass_table", resolution=16)),
            run_rigidbody_demo(RunConfig(mode="rigidbody3d_demo")),
        ]
    assert reports[2]["diverged_levels"] == [0, 1]
    for report in reports:
        assert _report_types(report) <= {dict, list, str, int, float, bool, type(None)}


EXTREMES = (0.0, 5e-324, 1e-320, 1e-200, 1e-154, 1e-20, 1e-6, 1.0, 1e6, 1e150, 1e300, 1.7e308)
EXTREME_FIELDS = ("rho_left", "c_left", "rho_right", "c_right", "mass", "beta",
                  "alpha_left", "alpha_right", "cfl")


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@example(command="simulate", scheme="second", coupling="projection", values={"c_left": 1e-200},
         n_cells=10, levels=1, t_final=1e-3)
@example(command="simulate", scheme="second", coupling="projection", values={"beta": 1.7e308},
         n_cells=10, levels=1, t_final=1e-3)
@example(command="stability", scheme="second", coupling="projection", values={"cfl": 1e-306},
         n_cells=10, levels=1, t_final=1e-3)
@example(command="stability", scheme="second", coupling="projection", values={"cfl": 5e-324},
         n_cells=10, levels=1, t_final=1e-3)
@given(command=st.sampled_from(("simulate", "converge", "stability")),
       scheme=st.sampled_from(SCHEMES), coupling=st.sampled_from(COUPLINGS),
       values=st.dictionaries(st.sampled_from(EXTREME_FIELDS), st.sampled_from(EXTREMES), max_size=3),
       n_cells=st.integers(3, 10), levels=st.integers(1, 2),
       t_final=st.sampled_from((1e-6, 1e-4, 1e-3)))
def test_cli_extreme_inputs_end_in_a_documented_exit_code(command, scheme, coupling, values,
                                                          n_cells, levels, t_final):
    """Extreme densities, speeds, masses, pulse widths, interface weights and
    Courant numbers end in exit 2, exit 3 or exit 0 with a whole report
    (strict JSON, or a CSV row per sweep row), never a traceback; a run under
    projection coupling that exits 0 has not diverged, also at beta =
    1.7e308, where the closed form's 2 c beta m overflows."""
    if coupling == "custom":
        values = {"alpha_left": 1.0, "alpha_right": 1.0, **values}
    suffix = ".csv" if command == "stability" else ".json"
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / f"report{suffix}"
        cfg.write_text(json.dumps(values))
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main([command, "--scheme", scheme, "--coupling", coupling, "--cells", str(n_cells),
                         "--levels", str(levels), "--tfinal", repr(t_final), "--config", str(cfg),
                         "--out", str(out)])
        assert code in (0, 2, 3) and "Traceback" not in stderr.getvalue()
        if code == 0 and suffix == ".json":
            report = json.loads(out.read_text(), parse_constant=_reject_constant)
            if coupling == "projection":
                assert not report.get("diverged") and not report.get("diverged_levels")
        elif code == 0:  # one complete row per sweep row
            lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("# ")]
            rows = list(csv.reader(lines))
            assert len(rows) == 1 + len(SWEEP_ROWS) and {len(row) for row in rows} == {len(rows[0])}
