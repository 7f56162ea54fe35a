"""Experiment driver: coupled 1D runs, convergence studies, stability sweeps,
added-mass tables and the rigid-body demo, each returned as a report dict
(`cli` writes the reports)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil, isfinite, sqrt
from numbers import Integral, Real
from sys import float_info

import numpy as np

from .addedmass import Ellipse, Ellipsoid, Starfish, added_mass_analytic, added_mass_tensors, sample_surface
from .coupling import CoupledRun, CoupledState
from .coupling import step_algorithm1, step_algorithm2  # noqa: F401  looked up here by perfbench/spans.py
from .exact import ModelProblem, body_displacement_exact, body_velocity_exact, field_exact
from .materials import FluidField1D, FluidMaterial, Grid1D
from .rigidbody3d import BodyInertia, DIRKTableau, PartialForcing, RigidBodyState3D, dirk_step
from .stability import (
    GrowthConfig,
    StabilityQuery,
    count_unstable_modes,
    empirical_growth_rate,  # noqa: F401  looked up here by perfbench/spans.py
    growth_rates,
    max_stable_dt_traditional,
    roots_first_order_projection,
    roots_first_order_traditional,
    second_order_determinant,
)

SCHEMES = ("first", "second")
COUPLINGS = ("traditional", "projection", "custom")
SHAPES = ("ellipse", "sphere", "ellipsoid", "starfish", "all")
MAX_CELLS = 2 ** 20  # cap on a 1D run's finest grid per side: n_cells, times 2**(levels - 1) in converge1d
MAX_STEPS = 2 ** 20  # cap on the steps of a 1D run's finest level, t_final / dt
_FIELD_TYPES = {"str": str, "int": Integral, "float": Real}  # bool is Integral: refused separately


@dataclass
class RunConfig:
    """One experiment description; defaults mirror the reference setup
    (rho = 1 on both sides, c_left = sqrt(2), c_right = sqrt(3), Gaussian
    pulse with beta = 10 centered at x0 = -1/2, run to t = 0.75)."""

    mode: str = "simulate1d"
    scheme: str = "second"
    coupling: str = "projection"
    alpha_left: float | None = None   # used only for coupling == "custom"
    alpha_right: float | None = None
    mass: float = 1.0
    cfl: float = 0.8
    n_cells: int = 100                # per side, coarsest level
    levels: int = 1
    t_final: float = 0.75
    rho_left: float = 1.0
    c_left: float = sqrt(2.0)
    rho_right: float = 1.0
    c_right: float = sqrt(3.0)
    beta: float = 10.0
    x0: float = -0.5
    domain_length: float = 2.0
    shape: str = "all"
    resolution: int = 512
    out: str | None = None
    seed: int = 0

    def __post_init__(self):
        for name, choices in (("mode", tuple(RUNNERS)), ("scheme", SCHEMES),
                              ("coupling", COUPLINGS), ("shape", SHAPES)):
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        if self.coupling == "custom" and (self.alpha_left is None or self.alpha_right is None):
            raise ValueError("custom coupling needs alpha_left and alpha_right")
        for name, field in self.__dataclass_fields__.items():
            kind, _, optional = field.type.partition(" | ")  # "float", "int | None", ...
            value = getattr(self, name)
            if value is None and optional:
                continue
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind]):
                raise ValueError(f"{name} must be {kind}, got {value!r}")
            # a size or count feeds float arithmetic; numpy seeds from an int of any size
            if name != "seed" and isinstance(value, Integral) and abs(value) > float_info.max:
                raise ValueError(f"{name} must be finite, got an integer larger than any float")
        if not (isfinite(self.mass) and self.mass >= 0.0):
            raise ValueError(f"mass must be finite and >= 0, got {self.mass}")
        if not float_info.min <= self.cfl <= 1.0:  # a subnormal cfl puts a growth run's dx = 1/cfl past any float
            raise ValueError(f"cfl must be in (0, 1] and normal (>= {float_info.min:g}), got {self.cfl}")
        for name, low in (("levels", 1), ("n_cells", 3), ("resolution", 8), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("t_final", "domain_length"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name, value in self.to_dict().items():
            if isinstance(value, float) and not isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        self.materials()  # refuses a material whose z or kappa is not a normal float
        if self.mode in ("simulate1d", "converge1d"):  # the finest grid and dt, as run_simulation's
            # only converge1d refines: shift once levels - 1 (maybe near 1e308) is known to be <= 20
            study = self.mode == "converge1d"
            shift = self.levels - 1 if study else 0
            if shift >= MAX_CELLS.bit_length() or self.n_cells << shift > MAX_CELLS:
                grid = "n_cells * 2**(levels - 1)" if study else "n_cells"
                levels = f" and levels {self.levels}" if study else ""
                raise ValueError(f"{grid}, the finest grid per side, must be <= {MAX_CELLS}, "
                                 f"got n_cells {self.n_cells}{levels}")
            dx = self.domain_length / (self.n_cells << shift)
            dt = self.cfl * dx / max(self.c_left, self.c_right)
            if not (dt > 0.0 and self.t_final / dt <= MAX_STEPS):  # a float ratio: inf is refused too
                levels = f", levels {self.levels}" if study else ""
                raise ValueError(f"t_final / dt, the steps on the finest grid, must be <= {MAX_STEPS}, "
                                 f"got t_final {self.t_final}, cfl {self.cfl}, n_cells {self.n_cells}"
                                 f"{levels} and domain_length {self.domain_length}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        return cls(**data)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def materials(self) -> tuple[FluidMaterial, FluidMaterial]:
        return FluidMaterial(self.rho_left, self.c_left), FluidMaterial(self.rho_right, self.c_right)

    def problem(self) -> ModelProblem:
        return ModelProblem(*self.materials(), self.mass, self.beta, self.x0)

    def alphas(self) -> tuple[float, float]:
        """Interface weights for the chosen coupling."""
        mat_l, mat_r = self.materials()
        if self.coupling == "traditional":
            return 0.0, 0.0
        if self.coupling == "projection":
            return mat_l.z, mat_r.z
        return float(self.alpha_left), float(self.alpha_right)


# -- 1D simulation ------------------------------------------------------------


def _exact_interior(prob: ModelProblem, grid: Grid1D, t: float):
    """Exact (v, sigma) at the interior cell centers of `grid` at time t."""
    return field_exact(prob, grid.side, grid.cell_centers()[grid.interior], t)


ERROR_KEYS = ("v_max", "sigma_max", "v_l1", "sigma_l1", "v_body_max")


def run_simulation(cfg: RunConfig) -> dict:
    """One coupled run against the closed-form solution; max/L1 error report.

    The step is cfl * dx / max(c) shrunk to land exactly on t_final; the body
    velocity error is the max over the whole time history; x_body_error is
    |x_body - (U(0, t) - U0(0))| at the end, U the closed-form displacement.
    """
    prob = cfg.problem()
    mat_l, mat_r = cfg.materials()
    alpha_l, alpha_r = cfg.alphas()
    order = 1 if cfg.scheme == "first" else 2

    dx = cfg.domain_length / cfg.n_cells
    dt = cfg.cfl * dx / max(mat_l.c, mat_r.c)
    n_steps = max(1, ceil(cfg.t_final / dt - 1e-12))
    dt = cfg.t_final / n_steps

    fields = []  # exact-solution initial data on both half-lines (ghosts via coupling)
    for side in ("left", "right"):
        grid = Grid1D.uniform(side, cfg.domain_length, dx)
        v, s = np.zeros(grid.n_points), np.zeros(grid.n_points)
        v[grid.interior], s[grid.interior] = _exact_interior(prob, grid, 0.0)
        fields.append(FluidField1D(grid, v, s))
    v0 = float(body_velocity_exact(prob, 0.0))
    run = CoupledRun(order, CoupledState(*fields, v0), mat_l, mat_r, cfg.mass, dt, alpha_l, alpha_r)
    v_body_hist = [run.v_body]
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
        for _ in range(n_steps):
            run.step()
            v_body_hist.append(run.v_body)
        state = run.state()

    v_body_hist = np.array(v_body_hist)
    times = dt * np.arange(n_steps + 1)
    finite = np.all(np.isfinite(v_body_hist)) and np.all(
        np.isfinite(state.left.v)) and np.all(np.isfinite(state.right.v))
    if finite:
        dv, ds = np.concatenate([
            np.abs(np.array([f.v[f.grid.interior], f.sigma[f.grid.interior]])
                   - _exact_interior(prob, f.grid, state.t))
            for f in (state.left, state.right)], axis=1)
        errors = {
            "v_max": float(np.max(dv)),
            "sigma_max": float(np.max(ds)),
            "v_l1": float(np.sum(dv) / dv.size),
            "sigma_l1": float(np.sum(ds) / ds.size),
            "v_body_max": float(np.max(np.abs(v_body_hist - body_velocity_exact(prob, times)))),
        }
        diverged = not all(np.isfinite(v) for v in errors.values())
    else:
        errors = dict.fromkeys(ERROR_KEYS, float("inf"))
        diverged = True
    x_exact = body_displacement_exact(prob, state.t) - prob.displacement0(0.0)
    return {
        "config": cfg.to_dict(),
        "dx": dx,
        "dt": dt,
        "n_steps": n_steps,
        "courant_left": mat_l.c * dt / dx,
        "courant_right": mat_r.c * dt / dx,
        "errors": errors,
        "final": {"t": state.t, "v_body": state.v_body, "x_body": state.x_body},
        "diverged": diverged,
        "x_body_error": float(abs(state.x_body - x_exact)),
    }


# -- convergence --------------------------------------------------------------


def run_convergence_study(cfg: RunConfig) -> dict:
    """Grid-halving study; per-level errors, pairwise ratios, and the
    least-squares slope of log(error) against log(dx)."""
    levels = []
    for j in range(cfg.levels):
        level_cfg = replace(cfg, mode="simulate1d", n_cells=cfg.n_cells * 2**j, levels=1)
        result = run_simulation(level_cfg)
        levels.append({"level": j, "n_cells": level_cfg.n_cells,
                       **{key: result[key] for key in ("dx", "dt", "errors", "diverged")}})
    ratios = {}
    rates = {}
    log_dx = np.log([lv["dx"] for lv in levels])
    for key in ERROR_KEYS:
        errs = np.array([lv["errors"][key] for lv in levels])
        with np.errstate(over="ignore", invalid="ignore"):  # inf / inf is NaN, written as null
            ratios[key] = [
                float(errs[i] / errs[i + 1]) if errs[i + 1] > 0 else float("nan")
                for i in range(len(errs) - 1)
            ]
        good = np.isfinite(errs) & (errs > 0.0)
        rates[key] = (float(np.polyfit(log_dx[good], np.log(errs[good]), 1)[0])
                      if np.count_nonzero(good) >= 2 else float("nan"))
    return {
        "config": cfg.to_dict(),
        "levels": levels,
        "ratios": ratios,
        "rates": rates,
        "diverged_levels": [lv["level"] for lv in levels if lv["diverged"]],
    }


# -- stability sweep ----------------------------------------------------------


# (scheme, coupling, massless body, dt / traditional first-order bound)
SWEEP_ROWS = (
    ("first", "traditional", False, 0.5),
    ("first", "traditional", False, 0.9),
    ("first", "traditional", False, 1.1),
    ("first", "traditional", False, 2.0),
    ("first", "projection", False, 0.5),
    ("first", "projection", False, 2.0),
    ("first", "projection", False, 10.0),
    ("first", "projection", True, 2.0),
    ("first", "traditional", True, 2.0),
    ("second", "projection", False, 2.0),
    ("second", "projection", False, 10.0),
    ("second", "traditional", False, 0.5),
    ("second", "traditional", False, 2.0),
)


def _predict(scheme: str, coupling: str, q: StabilityQuery) -> tuple[str | float, bool]:
    """Closed-form max |A| (or "unbounded") at first order, the number of
    growing modes at second order; and the predicted verdict."""
    if scheme == "second":
        n_unstable = count_unstable_modes(second_order_determinant, q)
        return f"{n_unstable} unstable modes", n_unstable == 0
    roots = roots_first_order_projection if coupling == "projection" else roots_first_order_traditional
    rep = roots(q)
    if rep.unbounded:
        return "unbounded", False
    return rep.max_modulus, rep.stable


def run_stability_sweep(cfg: RunConfig) -> dict:
    """Predicted amplification vs measured growth over SWEEP_ROWS: schemes,
    couplings and step sizes (multiples of the traditional stability bound).

    measured_stable uses a 1% margin on the per-step rate; rows land well off
    the stability boundary so the verdicts are unambiguous.
    """
    if not cfg.mass >= float_info.min:
        raise ValueError(f"the stability sweep needs mass > 0 and normal (>= {float_info.min:g}), got "
                         f"{cfg.mass:g}: its steps are multiples of the traditional bound m (4 - lambda)/"
                         "(z lambda), 0 for a massless body, and the sweep already has massless rows")
    mat = cfg.materials()[0]
    z, lam = mat.z, cfg.cfl
    bound = max_stable_dt_traditional(cfg.mass, z, lam)
    top = max(factor for *_, factor in SWEEP_ROWS)
    if not isfinite(top * bound):
        raise ValueError(f"the stability sweep's largest step, {top:g} x the traditional bound m (4 - lambda)/"
                         f"(z lambda), must be finite, got mass {cfg.mass:g} and cfl {cfg.cfl:g}")
    growth = [GrowthConfig(mat, 0.0 if massless else cfg.mass, factor * bound, lam,
                           z if coupling == "projection" else 0.0, scheme, seed=cfg.seed)
              for scheme, coupling, massless, factor in SWEEP_ROWS]
    rows = []
    # one stack for the sweep; None where the solver refuses the configuration outright
    for (scheme, coupling, _, _), g, measured in zip(SWEEP_ROWS, growth, growth_rates(growth)):
        mass, dt = g.mass, g.dt
        predicted, pred_stable = _predict(scheme, coupling, StabilityQuery(lam, dt, mass, z, g.alpha))
        rate_compared = (measured is not None and isinstance(predicted, float)
                         and predicted > 1.01 and not pred_stable)
        meas_stable = measured is not None and measured <= 1.01  # a refusal is unstable
        agree = meas_stable == pred_stable and (
            not rate_compared or abs(measured - predicted) <= 0.05 * predicted)
        rows.append({
            "scheme": scheme,
            "coupling": coupling,
            "mass": mass,
            "courant": lam,
            "dt": dt,
            "dt_over_bound": dt / bound,
            "predicted": predicted,
            "predicted_stable": pred_stable,
            "measured_rate": measured,
            "measured_stable": meas_stable,
            "agree": agree,
            "rate_compared": rate_compared,
        })
    return {"config": cfg.to_dict(), "rows": rows, "all_agree": all(r["agree"] for r in rows)}


# -- added-mass table ---------------------------------------------------------

# One entry per body: (shape, params, body, kind, {entry: (reference, tol)});
# entries without a reference are of kind "none".  Analytic references are
# taken from added_mass_analytic(body), so they are None here.  Ellipse
# references (a = 1, unit impedance) are three-significant-digit printed values
# to half a printed ulp, except b = 0.01 avv_22, where the printed 3.99
# truncates the true 3.999102 (one full ulp); the ellipsoid references are
# printed four-to-six digit values.  Invariant tolerances are relative to the
# largest |entry| of the composite tensor, and the smallest eigenvalue is
# checked against its nonnegative part.
ADDED_MASS_REFERENCES = (
    ("ellipse", "a=1 b=1.0", Ellipse(1.0, 1.0), "analytic",
     dict.fromkeys(("avv_11", "avv_22", "aww_33"), (None, 1e-10))),
    ("ellipse", "a=1 b=0.5", Ellipse(1.0, 0.5), "printed",
     {"avv_11": (1.26, 5e-3), "avv_22": (3.58, 5e-3), "aww_33": (0.581, 5e-4)}),
    ("ellipse", "a=1 b=0.1", Ellipse(1.0, 0.1), "printed",
     {"avv_11": (0.108, 5e-4), "avv_22": (3.96, 5e-3), "aww_33": (1.27, 5e-3)}),
    ("ellipse", "a=1 b=0.01", Ellipse(1.0, 0.01), "printed",
     {"avv_11": (0.0020, 5e-5), "avv_22": (3.99, 1e-2), "aww_33": (1.33, 5e-3)}),
    ("sphere", "a=1", Ellipsoid(1.0, 1.0, 1.0), "analytic",
     dict.fromkeys(("avv_11", "avv_22", "avv_33", "aww_max"), (None, 1e-10))),
    ("ellipsoid", "a=1.0 b=1.0 c=2.0", Ellipsoid(1.0, 1.0, 2.0), "printed",
     {"avv_11": (9.25387, 1e-3), "avv_22": (9.25387, 1e-3), "avv_33": (2.97069, 1e-3),
      "aww_11": (4.71239, 1e-3), "aww_22": (4.71239, 1e-3), "aww_33": (0.0, 1e-3)}),
    ("ellipsoid", "a=1.0 b=2.0 c=3.0", Ellipsoid(1.0, 2.0, 3.0), "printed",
     {"avv_11": (32.30707, 1e-3), "avv_22": (11.02345, 1e-3), "avv_33": (5.55162, 1e-3),
      "aww_11": (6.83979, 1e-3), "aww_22": (53.51090, 1e-3), "aww_33": (15.96272, 1e-3)}),
    ("starfish", "arms=5", Starfish.default(), "invariant",
     {"avv_11": (None, None), "avv_22": (None, None), "avv_33": (None, None),
      "aww_33": (None, None), "symmetry_drift": (0.0, 1e-12),
      "min_eigenvalue": (lambda value: max(value, 0.0), 1e-12)}),
)


# Largest per-dimension count for the table's ellipsoids, a measured choice:
# at 64 each one's composite is within 1.7e-13 of its value at 256 (largest
# entry 53.5), while at 32 Ellipsoid(1, 2, 3) is off by 2.8e-7.
ELLIPSOID_RESOLUTION = 64


def _entry_value(tens, entry: str) -> float:
    """A diagonal entry such as "avv_11", or one of the named derived values."""
    if entry == "aww_max":
        return float(np.max(np.abs(tens.aww)))
    if entry == "symmetry_drift":
        return float(np.max(np.abs(tens.composite - tens.composite.T)))
    if entry == "min_eigenvalue":
        return float(np.min(np.linalg.eigvalsh(tens.composite)))
    i = int(entry[-1]) - 1
    return float((tens.avv if entry.startswith("avv") else tens.aww)[i, i])


def run_addedmass_table(cfg: RunConfig) -> dict:
    """Tensor entries for the requested shapes, against analytic or printed
    reference values where those exist (invariant checks otherwise)."""
    rows = []
    for shape, params, body, kind, refs in ADDED_MASS_REFERENCES:
        if cfg.shape not in ("all", shape):
            continue
        res = min(cfg.resolution, ELLIPSOID_RESOLUTION) if isinstance(body, Ellipsoid) else cfg.resolution
        tens = added_mass_tensors(sample_surface(body, 1.0, res))
        exact = added_mass_analytic(body) if kind == "analytic" else None
        scale = float(np.max(np.abs(tens.composite)))
        for entry, (reference, tol) in refs.items():
            value = _entry_value(tens, entry)
            if exact is not None:
                reference = _entry_value(exact, entry)
            elif callable(reference):
                reference = reference(value)
            if kind == "invariant" and tol is not None:
                tol = tol * scale
            abs_diff = abs(value - reference) if reference is not None else None
            rows.append({
                "shape": shape,
                "params": params,
                "entry": entry,
                "value": value,
                "reference": reference,
                "reference_kind": kind if reference is not None else "none",
                "abs_diff": abs_diff,
                "rel_diff": abs_diff / abs(reference) if reference not in (None, 0.0) else None,
                "ok": reference is None or abs_diff <= tol,
            })
    return {"config": cfg.to_dict(), "rows": rows, "all_ok": all(r["ok"] for r in rows)}


# -- rigid-body demo ----------------------------------------------------------


def run_rigidbody_demo(cfg: RunConfig) -> dict:
    """Short DIRK3 integration of an ellipsoid with sinusoidal forcing."""
    tensors = added_mass_tensors(sample_surface(Ellipsoid(1.0, 1.0, 2.0), 1.0, 32))
    inertia = BodyInertia(cfg.mass, np.eye(3))

    def provider(t):
        return PartialForcing(
            np.array([np.sin(t), 0.0, 0.0]), np.array([0.0, 0.0, np.cos(t)]), tensors
        )

    dt, n_steps = 0.05, 40
    states, times, tableau = [RigidBodyState3D.rest()], [0.0], DIRKTableau.dirk3()
    for _ in range(n_steps):
        states.append(dirk_step(states[-1], inertia, provider, tableau, dt, times[-1]))
        times.append(times[-1] + dt)
    hist = {"t": times, **{name: [getattr(s, name).tolist() for s in states]
                           for name in ("v", "omega", "x")},
            "e_drift": [s.orthogonality_drift() for s in states]}
    return {
        "config": cfg.to_dict(),
        "dt": dt,
        "n_steps": n_steps,
        "history": hist,
        "max_e_drift": max(hist["e_drift"]),
    }


# mode -> runner; RunConfig accepts exactly these modes, in this order
RUNNERS = {
    "simulate1d": run_simulation,
    "converge1d": run_convergence_study,
    "stability_sweep": run_stability_sweep,
    "addedmass_table": run_addedmass_table,
    "rigidbody3d_demo": run_rigidbody_demo,
}


def run_mode(cfg: RunConfig) -> dict:
    """Dispatch on cfg.mode; returns the report dict."""
    return RUNNERS[cfg.mode](cfg)
