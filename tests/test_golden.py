"""Golden regression: solver outputs pinned against stored reference values.

The files under tests/golden/ hold, for the reference setup:

- `simulate.json`: run_simulation error norms and final body state for both
  schemes under projection coupling (m = 1, 1e-6, 0) and traditional
  coupling (m = 1), n = 100 cells per side;
- `states.json`: the raw coupled state after 300 steps of each algorithm at
  n = 400, m = 1e-3, projection coupling;
- `stability.json`: the stability sweep rows at m = 1e-3, 1 and 1e-6, seed 5;
- `addedmass.json`: the `addedmass --shape all --resolution 512` table rows;
- `rb3d.json`: the `rb3d` DIRK3 histories at m = 0 and m = 0.5;
- `dirk_gyro.json`: DIRK1 and DIRK3 histories, 20 steps to t = 0.5, of the
  manufactured problem in `test_rigidbody3d.py` (A = diag(1, 2, 3),
  m = 0.7, random PSD tensors), whose gyroscopic term w x Aw is nonzero
  and takes several Newton iterations per stage (`rb3d` has A = I);
- `displacement.json`: the exact body displacement at seven times for eight
  masses (0 to 50) and three density pairs (c_L = sqrt 2, c_R = sqrt 3);
- `converge.json`: run_convergence_study reports (levels, ratios, rates,
  diverged levels) for both schemes under projection coupling (m = 1, 1e-6),
  n = 50, three levels, plus a first-order traditional run at m = 1e-6 to
  t = 2 that diverges on both of its two levels;
- `cli_help.json`: the `--help` text of the top-level parser and of each
  subcommand's, formatted at 80 columns.

Tolerances: error norms 1e-10 relative, final body values 1e-10 relative
or 1e-13 absolute (massless runs end near a zero crossing of v_body), field
states and the raw state's v_body 1e-13 of the largest field magnitude,
stability verdicts and predictions identical, measured growth rates 1e-12
relative, added-mass table values and their abs/rel differences from the
reference 1e-12 of the largest |value| of their shape with identical `ok`
flags, references and reference kinds, rigid-body histories 1e-12 of each
series' largest magnitude (the axes' orthogonality drift against the unit
scale of the axes themselves), the same for the gyroscopic DIRK histories,
the displacement series 1e-12 of each series' largest magnitude, and the
convergence reports with identical keys, flags, levels and positions of
non-finite values, and finite values 1e-12 relative, and the help texts
identical.

Regenerate (only when a change of output is intended and explained) with

    PYTHONPATH=src python tests/test_golden.py [file.json ...]
"""

import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from bodywave import (
    CoupledState,
    FluidMaterial,
    ModelProblem,
    body_displacement_exact,
    FluidField1D,
    Grid1D,
    RunConfig,
    body_velocity_exact,
    field_exact,
    step_algorithm1,
    step_algorithm2,
)
from bodywave.cli import SUBCOMMAND_MODES, build_parser
from bodywave.harness import (
    run_addedmass_table,
    run_convergence_study,
    run_rigidbody_demo,
    run_simulation,
    run_stability_sweep,
)
from bodywave.rigidbody3d import DIRKTableau, RigidBodyState3D, dirk_step
from test_rigidbody3d import _dirk1, _manufactured_problem

GOLDEN = Path(__file__).parent / "golden"

SIM_CASES = [
    (scheme, coupling, mass)
    for scheme in ("first", "second")
    for coupling, mass in (("projection", 1.0), ("projection", 1e-6),
                           ("projection", 0.0), ("traditional", 1.0))
]
STATE_N, STATE_STEPS, STATE_MASS = 400, 300, 1e-3
SWEEP_MASSES, SWEEP_SEED = (1e-3, 1.0, 1e-6), 5
TABLE_RESOLUTION = 512
RB3D_MASSES = (0.0, 0.5)
RB3D_SERIES = ("t", "x", "v", "omega", "e_drift")
GYRO_ORDERS, GYRO_STEPS, GYRO_T_FINAL = (1, 3), 20, 0.5
GYRO_SERIES = ("t", "x", "v", "omega", "E")
DISP_MASSES = (0.0, 1e-6, 1e-3, 0.0999, 0.1001, 0.5, 2.0, 50.0)
DISP_DENSITIES = ((1.0, 1.0), (100.0, 100.0), (1000.0, 1.0))
DISP_TIMES = (0.0, 0.05, 0.2, 0.35, 0.5, 0.75, 2.0)
# (scheme, coupling, mass, n_cells, levels, t_final); the last one diverges
CONV_CASES = tuple((scheme, "projection", mass, 50, 3, 0.75)
                   for scheme in ("first", "second") for mass in (1.0, 1e-6)) + (
    ("first", "traditional", 1e-6, 50, 2, 2.0),)


def _sim_key(scheme, coupling, mass):
    return f"{scheme}/{coupling}/m={mass!r}"


def _simulate(scheme, coupling, mass) -> dict:
    rep = run_simulation(RunConfig(scheme=scheme, coupling=coupling, mass=mass, n_cells=100))
    return {"errors": rep["errors"], **{k: rep["final"][k] for k in ("v_body", "x_body")}}


def simulate_outputs() -> dict:
    return {_sim_key(*case): _simulate(*case) for case in SIM_CASES}


def _state(order) -> dict:
    cfg = RunConfig(mass=STATE_MASS, n_cells=STATE_N)
    prob = cfg.problem()
    mat_l, mat_r = cfg.materials()
    al, ar = cfg.alphas()
    dx = cfg.domain_length / cfg.n_cells
    dt = cfg.cfl * dx / max(mat_l.c, mat_r.c)
    fields = []
    for side in ("left", "right"):
        grid = Grid1D.uniform(side, cfg.domain_length, dx)
        v, s = np.zeros(grid.n_points), np.zeros(grid.n_points)
        v[grid.interior], s[grid.interior] = field_exact(
            prob, side, grid.cell_centers()[grid.interior], 0.0)
        fields.append(FluidField1D(grid, v, s))
    state = CoupledState(*fields, float(body_velocity_exact(prob, 0.0)))
    stepper = step_algorithm1 if order == 1 else step_algorithm2
    for _ in range(STATE_STEPS):
        state = stepper(state, mat_l, mat_r, cfg.mass, dt, al, ar)
    return {
        "left_v": state.left.v.tolist(), "left_sigma": state.left.sigma.tolist(),
        "right_v": state.right.v.tolist(), "right_sigma": state.right.sigma.tolist(),
        "v_body": state.v_body, "x_body": state.x_body, "t": state.t,
    }


def state_outputs() -> dict:
    return {f"order{order}": _state(order) for order in (1, 2)}


def stability_outputs_for(mass) -> dict:
    rep = run_stability_sweep(RunConfig(mode="stability_sweep", mass=mass, seed=SWEEP_SEED))
    return {"rows": rep["rows"], "all_agree": rep["all_agree"]}


def stability_outputs() -> dict:
    return {f"m={mass!r}": stability_outputs_for(mass) for mass in SWEEP_MASSES}


def addedmass_outputs() -> dict:
    rep = run_addedmass_table(
        RunConfig(mode="addedmass_table", shape="all", resolution=TABLE_RESOLUTION))
    keep = ("shape", "params", "entry", "value", "reference", "reference_kind",
            "abs_diff", "rel_diff", "ok")
    return {"rows": [{k: row[k] for k in keep} for row in rep["rows"]], "all_ok": rep["all_ok"]}


def rb3d_outputs_for(mass) -> dict:
    hist = run_rigidbody_demo(RunConfig(mode="rigidbody3d_demo", mass=mass))["history"]
    return {k: hist[k] for k in RB3D_SERIES}


def rb3d_outputs() -> dict:
    return {f"m={mass!r}": rb3d_outputs_for(mass) for mass in RB3D_MASSES}


def dirk_gyro_outputs_for(order) -> dict:
    inertia, provider, _, y0 = _manufactured_problem()
    tableau = _dirk1() if order == 1 else DIRKTableau.dirk3()
    state = RigidBodyState3D(y0[:3], y0[3:6], y0[6:9], y0[9:].reshape(3, 3))
    dt, t = GYRO_T_FINAL / GYRO_STEPS, 0.0
    hist = {name: [] for name in GYRO_SERIES}
    for _ in range(GYRO_STEPS):
        state = dirk_step(state, inertia, provider, tableau, dt, t)
        t += dt
        hist["t"].append(t)
        for name in GYRO_SERIES[1:]:
            hist[name].append(getattr(state, name).tolist())
    return hist


def dirk_gyro_outputs() -> dict:
    return {f"dirk{order}": dirk_gyro_outputs_for(order) for order in GYRO_ORDERS}


def _disp_key(rho_l, rho_r, mass):
    return f"rho={rho_l!r},{rho_r!r}/m={mass!r}"


def displacement_outputs() -> dict:
    out = {}
    for rho_l, rho_r in DISP_DENSITIES:
        for mass in DISP_MASSES:
            prob = ModelProblem(FluidMaterial(rho_l, 2.0**0.5), FluidMaterial(rho_r, 3.0**0.5), mass)
            out[_disp_key(rho_l, rho_r, mass)] = body_displacement_exact(
                prob, np.array(DISP_TIMES)).tolist()
    return out


def _conv_key(scheme, coupling, mass, n_cells, levels, t_final):
    return f"{scheme}/{coupling}/m={mass!r}/n={n_cells}/levels={levels}/t={t_final!r}"


def converge_outputs_for(case) -> dict:
    scheme, coupling, mass, n_cells, levels, t_final = case
    rep = run_convergence_study(RunConfig(mode="converge1d", scheme=scheme, coupling=coupling,
                                          mass=mass, n_cells=n_cells, levels=levels,
                                          t_final=t_final))
    return {k: rep[k] for k in ("levels", "ratios", "rates", "diverged_levels")}


def converge_outputs() -> dict:
    return {_conv_key(*case): converge_outputs_for(case) for case in CONV_CASES}


def _load(name):
    return json.loads((GOLDEN / name).read_text())


def _close(got, want, rel, abs_tol=0.0):
    return abs(got - want) <= max(rel * abs(want), abs_tol)


@pytest.fixture(scope="module")
def simulate_golden():
    return _load("simulate.json")


@pytest.mark.parametrize("case", SIM_CASES, ids=[_sim_key(*c) for c in SIM_CASES])
def test_simulation_errors_match_golden(case, simulate_golden):
    got, want = _simulate(*case), simulate_golden[_sim_key(*case)]
    assert set(got["errors"]) == set(want["errors"])
    for name, value in want["errors"].items():
        assert _close(got["errors"][name], value, 1e-10), (name, got["errors"][name], value)
    for name in ("v_body", "x_body"):
        assert _close(got[name], want[name], 1e-10, 1e-13), name


@pytest.mark.parametrize("order", [1, 2])
def test_raw_state_matches_golden(order):
    want = _load("states.json")[f"order{order}"]
    got = _state(order)
    for name in ("left_v", "left_sigma", "right_v", "right_sigma"):
        w, g = np.array(want[name]), np.array(got[name])
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w)), name
    # the body is nearly at rest by now: v_body is held to the velocity field's scale
    v_scale = max(np.max(np.abs(want["left_v"])), np.max(np.abs(want["right_v"])))
    assert abs(got["v_body"] - want["v_body"]) <= 1e-13 * v_scale
    for name in ("x_body", "t"):
        assert _close(got[name], want[name], 1e-10), name


def test_stability_sweep_matches_golden():
    golden = _load("stability.json")
    for mass in SWEEP_MASSES:
        want, got = golden[f"m={mass!r}"], stability_outputs_for(mass)
        assert got["all_agree"] == want["all_agree"], mass
        assert len(got["rows"]) == len(want["rows"]), mass
        for g, w in zip(got["rows"], want["rows"]):
            for name in ("scheme", "coupling", "mass", "predicted", "predicted_stable",
                         "measured_stable", "agree"):
                assert g[name] == w[name], (mass, name, g, w)
            if w["measured_rate"] is None:
                assert g["measured_rate"] is None, (mass, g)
            else:
                assert _close(g["measured_rate"], w["measured_rate"], 1e-12), (mass, g, w)


def test_addedmass_table_matches_golden():
    want = _load("addedmass.json")
    got = addedmass_outputs()
    assert got["all_ok"] == want["all_ok"]
    assert [(r["shape"], r["params"], r["entry"]) for r in got["rows"]] == \
        [(r["shape"], r["params"], r["entry"]) for r in want["rows"]]
    scale = {}
    for w in want["rows"]:
        scale[w["shape"]] = max(scale.get(w["shape"], 0.0), abs(w["value"]))
    for g, w in zip(got["rows"], want["rows"]):
        for name in ("ok", "reference", "reference_kind"):
            assert g[name] == w[name], (name, g, w)
        for name in ("value", "abs_diff", "rel_diff"):
            if w[name] is None:
                assert g[name] is None, (name, g)
            else:
                assert abs(g[name] - w[name]) <= 1e-12 * scale[w["shape"]], (name, g, w)


@pytest.mark.parametrize("mass", RB3D_MASSES)
def test_rb3d_history_matches_golden(mass):
    want = _load("rb3d.json")[f"m={mass!r}"]
    got = rb3d_outputs_for(mass)
    for name in RB3D_SERIES:
        w, g = np.array(want[name]), np.array(got[name])
        assert g.shape == w.shape, name
        scale = 1.0 if name == "e_drift" else np.max(np.abs(w))
        assert np.max(np.abs(g - w)) <= 1e-12 * scale, name


@pytest.mark.parametrize("order", GYRO_ORDERS)
def test_gyroscopic_dirk_history_matches_golden(order):
    want = _load("dirk_gyro.json")[f"dirk{order}"]
    got = dirk_gyro_outputs_for(order)
    for name in GYRO_SERIES:
        w, g = np.array(want[name]), np.array(got[name])
        assert g.shape == w.shape, name
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), name


def test_displacement_matches_golden():
    want_all, got_all = _load("displacement.json"), displacement_outputs()
    assert set(got_all) == set(want_all)
    for key, want in want_all.items():
        w, g = np.array(want), np.array(got_all[key])
        assert g.shape == w.shape == (len(DISP_TIMES),), key
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), (key, g, w)


def _assert_report_matches(got, want, path="report"):
    """Same structure, keys and exact non-floats; floats 1e-12 relative where
    finite, and the same non-finite value (NaN, +inf or -inf) where not."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), path
        for key in want:
            _assert_report_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_report_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), (path, got)
        if np.isfinite(want):
            assert _close(got, want, 1e-12), (path, got, want)
        else:
            assert repr(got) == repr(want), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.mark.parametrize("case", CONV_CASES, ids=[_conv_key(*c) for c in CONV_CASES])
def test_convergence_study_matches_golden(case):
    _assert_report_matches(converge_outputs_for(case), _load("converge.json")[_conv_key(*case)])


def cli_help_outputs() -> dict:
    texts = {}
    for argv in ([], *([name] for name in SUBCOMMAND_MODES)):
        out = io.StringIO()
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(out):
            with pytest.raises(SystemExit):
                build_parser().parse_args([*argv, "--help"])
        texts[" ".join(["bodywave", *argv])] = out.getvalue()
    return texts


def test_cli_help_matches_golden():
    assert cli_help_outputs() == _load("cli_help.json")


GOLDEN_BUILDERS = {
    "simulate.json": simulate_outputs,
    "states.json": state_outputs,
    "stability.json": stability_outputs,
    "addedmass.json": addedmass_outputs,
    "rb3d.json": rb3d_outputs,
    "dirk_gyro.json": dirk_gyro_outputs,
    "displacement.json": displacement_outputs,
    "converge.json": converge_outputs,
    "cli_help.json": cli_help_outputs,
}


if __name__ == "__main__":
    import sys

    GOLDEN.mkdir(exist_ok=True)
    for name in sys.argv[1:] or GOLDEN_BUILDERS:
        text = json.dumps(GOLDEN_BUILDERS[name](), indent=1, sort_keys=True) + "\n"
        (GOLDEN / name).write_text(text)
        print(f"wrote {GOLDEN / name}")
