"""Normal-mode stability analysis of the partitioned interface schemes.

Interface modes of the semi-discrete coupled problem have the form
u_i^n = A^n r^i; eliminating the spatial structure leaves small linear
systems in the mode amplitudes whose singularity condition determines the
per-step amplification A.  The first-order (upwind + backward-Euler body)
scheme gives a 3x3 system with closed-form roots; the second-order
(Lax-Wendroff + trapezoidal body) scheme gives a 5x5 system that is used
as a determinant evaluator: absence of roots with |A| > 1 is certified by
argument-principle winding counts on circles enclosing the exterior of the
unit disk.

Conventions: lambda = c dt/dx; xi = dt/m_b; the rightward characteristic
family sees effective advection nu = -lambda, the leftward family
nu = +lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from . import coupling
from .coupling import CoupledRun, CoupledState, SingularBodyUpdate
from .coupling import step_algorithm1, step_algorithm2  # noqa: F401  looked up here by perfbench/spans.py
from .materials import FluidMaterial, Grid1D, FluidField1D
from .schemes import Characteristics

# Argument-principle contour: circles |A| = 1.01 and 1e4, sampled together at
# equally spaced points, doubled until resolved (see count_unstable_modes).
INNER_RADIUS, OUTER_RADIUS = 1.01, 1e4
CONTOUR_START, CONTOUR_CAP, CONTOUR_MAX_TURN = 64, 2 * 65536, np.pi / 4

GROWTH_AMPLITUDE = 1e-3  # size of the random initial data of a growth run


@dataclass(frozen=True)
class StabilityQuery:
    """Parameters of a normal-mode question: CFL number, step, body mass,
    impedance (equal on both sides), and coupling weight alpha."""

    courant: float
    dt: float
    mass: float
    z: float
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.courant <= 1.0:
            raise ValueError(f"courant must be in (0, 1], got {self.courant}")
        if not (self.dt > 0.0 and isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (self.z > 0.0 and isfinite(self.z)):
            raise ValueError(f"z must be positive and finite, got {self.z}")
        if not (self.mass >= 0.0 and isfinite(self.mass)):
            raise ValueError(f"mass must be >= 0 and finite, got {self.mass}")
        if not isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")


@dataclass(frozen=True)
class AmplificationReport:
    """Amplification factors (Python complex) of the interface modes; the
    verdict is derived from them.

    A massless traditional coupling has no finite amplification factor;
    that is reported as unbounded=True with max_modulus None (kept out of
    the float fields so reports stay serializable).
    """

    roots: tuple
    unbounded: bool = False

    @property
    def max_modulus(self) -> float | None:
        return None if self.unbounded else max(abs(r) for r in self.roots)

    @property
    def stable(self) -> bool:
        return not self.unbounded and self.max_modulus <= 1.0 + 1e-12


def max_stable_dt_traditional(mass: float, z: float, courant: float) -> float:
    """Largest stable step of the traditional (alpha = 0) first-order
    coupling: dt < mass (4 - lambda) / (z lambda).  Zero for a massless body."""
    if not (z > 0.0 and 0.0 < courant <= 1.0 and mass >= 0.0):
        raise ValueError("need z > 0, courant in (0,1], mass >= 0")
    return mass * (4.0 - courant) / (z * courant)


def roots_first_order_traditional(q: StabilityQuery) -> AmplificationReport:
    """Closed-form amplification factors of the first-order traditional
    coupling: A1 = 1 - lam/2 and

        A23 = (1 - lam/4 - z xi lam/2) +- sqrt((...)^2 - 1 + lam/2)

    with xi = dt/mass.  mass = 0 is reported as unbounded (|A| -> inf)."""
    lam = q.courant
    a1 = 1.0 - 0.5 * lam
    if q.mass == 0.0:
        return AmplificationReport((complex(a1),), unbounded=True)
    xi = q.dt / q.mass
    mid = 1.0 - 0.25 * lam - 0.5 * q.z * xi * lam
    disc = mid * mid - 1.0 + 0.5 * lam
    root = np.sqrt(complex(disc))
    return AmplificationReport((complex(a1), complex(mid + root), complex(mid - root)))


def roots_first_order_projection(q: StabilityQuery) -> AmplificationReport:
    """Single coupling root A = m/(m + 2 dt z) of the projected (alpha = z)
    first-order scheme; in [0, 1) for every mass >= 0."""
    return AmplificationReport((complex(q.mass / (q.mass + 2.0 * q.dt * q.z)),))


# -- Lax-Wendroff spatial roots ---------------------------------------------


def _lw_family_vec(nu: float, A: np.ndarray):
    """(inside root, reciprocal of outside root) of an interface mode A^n r^i
    of Lax-Wendroff with Courant number nu, 0 < |nu| <= 1, vectorized over
    |A| > 1: (1/2)(nu + nu^2) r^2 + (1 - A - nu^2) r + (1/2)(nu^2 - nu) = 0.

    The nu = -1 degeneracy (lambda = 1 rightward family) is the limit in
    which the outside root escapes to infinity, so its reciprocal is 0.
    """
    A = np.asarray(A, dtype=complex)
    if abs(nu + 1.0) < 1e-14:
        return 1.0 / A, np.zeros_like(A)
    q2 = 0.5 * (nu + nu * nu)
    q1 = 1.0 - A - nu * nu
    q0 = 0.5 * (nu * nu - nu)
    disc = np.sqrt(q1 * q1 - 4.0 * q2 * q0)
    pick = np.abs(q1 + disc) >= np.abs(q1 - disc)
    big = np.where(pick, q1 + disc, q1 - disc)
    r_out = -0.5 * big / q2  # the larger root; Vieta gives the smaller
    r_in = q0 / (q2 * r_out) if q0 != 0.0 else np.zeros_like(r_out)
    return r_in, 1.0 / r_out


# -- eigen-system determinants ----------------------------------------------


class ContourFailure(ArithmeticError):
    """The argument-principle mode count could not be certified."""


def _first_order_entries(A, q: StabilityQuery):
    """Entries (d, e, f, g) of the first-order interface-mode system
    [[d, 0, -e], [0, d, e], [f, -f, g]] in the unknowns (b_L0, a_R0, v/c)."""
    A = np.asarray(A, dtype=complex)
    lam, z, al, dt, m = q.courant, q.z, q.alpha, q.dt, q.mass
    r = (A - 1.0 + lam) / lam
    d = 1.0 + (al - z) / (2.0 * z * r)
    e = (al + z) / (2.0 * z)
    f = A * dt * (z - al) / r
    g = m * (A - 1.0) + 2.0 * dt * al * A
    return d, e, f, g


def first_order_determinant(A, q: StabilityQuery):
    """det of the first-order system, d^2 g + 2 d e f, from its entries."""
    d, e, f, g = _first_order_entries(A, q)
    return d * (d * g + 2.0 * e * f)


def _second_order_entries(A, q: StabilityQuery) -> dict:
    """Nonzero entries {(row, col): value} of the 5x5 second-order interface-mode
    system at |A| > 1 in the unknowns (a_L0, b_L0, a_R0, b_R0, v/c).

    Left-domain modes carry the outside spatial root of each characteristic
    family (entering via its reciprocal), right-domain modes the inside
    root; S(y) = (3y - y^2)/2 is the quadratic edge-extrapolation factor.

    The last row is the trapezoidal body update with the net force
    sigma_I(right) - sigma_I(left): with v = c(-a + b), the projected
    stresses contribute (z + alpha) along a_L, b_R and (z - alpha) along
    b_L, a_R, and both right-side terms enter the row negated.  The
    resulting sign pattern (+, +, -, -) is deliberately asymmetric; only
    at alpha = z do the (z - alpha) entries drop out.
    """
    A = np.asarray(A, dtype=complex)
    lam, w = q.courant, q.alpha / q.z
    r1a, y_la = _lw_family_vec(-lam, A)  # rightward family, nu = -lambda
    r1b, y_lb = _lw_family_vec(+lam, A)  # leftward family,  nu = +lambda
    s_la, s_lb, s_ra, s_rb = (1.5 * y - 0.5 * y * y for y in (y_la, y_lb, r1a, r1b))
    return {
        (0, 0): 1.0 + y_la, (0, 1): -(1.0 + y_lb), (0, 4): 2.0,
        (1, 2): 1.0 + r1a, (1, 3): -(1.0 + r1b), (1, 4): 2.0,
        (2, 0): 1.0 + y_la - 2.0 * (w + 1.0) * s_la,
        (2, 1): 1.0 + y_lb + 2.0 * (w - 1.0) * s_lb, (2, 4): -2.0 * w,
        (3, 2): 1.0 + r1a + 2.0 * (w - 1.0) * s_ra,
        (3, 3): 1.0 + r1b - 2.0 * (w + 1.0) * s_rb, (3, 4): 2.0 * w,
        (4, 0): (w + 1.0) * s_la, (4, 1): (1.0 - w) * s_lb,
        (4, 2): -(1.0 - w) * s_ra, (4, 3): -(1.0 + w) * s_rb,
        (4, 4): ((A - 1.0) / (A + 1.0)) * 2.0 * q.mass / (q.dt * q.z) + 2.0 * w,
    }


def second_order_determinant(A, q: StabilityQuery):
    """det of the second-order system by block elimination, without
    building it.  Rows 0, 2 touch only columns {0, 1, 4} and rows 1, 3 only
    {2, 3, 4}; the row order (0, 2, 1, 3, 4), an odd permutation, gives
    [[P, 0, p], [0, Q, q], [r, s, t]], so
    det = -(t detP detQ - detQ r adj(P) p - detP s adj(Q) q)."""
    e = _second_order_entries(A, q)
    det_p = e[0, 0] * e[2, 1] - e[0, 1] * e[2, 0]
    det_q = e[1, 2] * e[3, 3] - e[1, 3] * e[3, 2]
    r_adj_p = (e[4, 0] * (e[2, 1] * e[0, 4] - e[0, 1] * e[2, 4])
               + e[4, 1] * (e[0, 0] * e[2, 4] - e[2, 0] * e[0, 4]))
    s_adj_q = (e[4, 2] * (e[3, 3] * e[1, 4] - e[1, 3] * e[3, 4])
               + e[4, 3] * (e[1, 2] * e[3, 4] - e[3, 2] * e[1, 4]))
    return det_q * r_adj_p + det_p * s_adj_q - e[4, 4] * det_p * det_q


def count_unstable_modes(det_fn, q: StabilityQuery) -> int:
    """Number of determinant zeros in INNER_RADIUS < |A| < OUTER_RADIUS: the
    winding of det_fn(., q) around the outer circle minus that around the
    inner (Delves & Lyness, Math. Comp. 1967).  Both circles start at
    CONTOUR_START equal steps; each round samples every midpoint of both in
    one call, until no phase step exceeds CONTOUR_MAX_TURN or the circles
    would pass CONTOUR_CAP points together (undersampled).  Both circles
    must avoid zeros; the determinant is analytic in the annulus because the
    spatial-root selection is unambiguous for |A| > 1."""
    radii, grid = np.array([[INNER_RADIUS], [OUTER_RADIUS]]), CONTOUR_CAP // 2
    k, values = np.arange(0, grid, grid // CONTOUR_START), None
    while True:
        new = det_fn((radii * np.exp(2j * np.pi * k / grid)).ravel(), q).reshape(2, -1)
        if not np.all(np.isfinite(new) & (new != 0.0)):
            raise ContourFailure("determinant vanished (or is not finite) on the contour")
        values = new if values is None else np.stack((values, new), axis=-1).reshape(2, -1)
        turns = np.angle(np.roll(values, -1, axis=1) / values)
        if np.max(np.abs(turns)) <= CONTOUR_MAX_TURN:
            break
        step = grid // values.shape[1]
        if step < 2:
            raise ContourFailure(f"contour undersampled at {CONTOUR_CAP} points")
        k = np.arange(step // 2, grid, step)
    total = turns.sum(axis=1) / (2.0 * np.pi)
    w = np.round(total)
    if np.max(np.abs(total - w)) > 1e-6:
        raise ContourFailure(f"winding number did not close: {total}")
    return int(w[1] - w[0])


# -- empirical growth --------------------------------------------------------


@dataclass(frozen=True)
class GrowthConfig:
    """A small coupled run with random initial data for measuring growth."""

    mat: FluidMaterial
    mass: float
    dt: float
    courant: float
    alpha: float
    scheme: str  # "first" | "second"
    n_cells: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in ("first", "second"):
            raise ValueError(f"scheme must be 'first' or 'second', got {self.scheme!r}")
        StabilityQuery(self.courant, self.dt, self.mass, self.mat.z, self.alpha)  # the same rules

    @property
    def dx(self) -> float:
        return self.mat.c * self.dt / self.courant


def _growth_run(config: GrowthConfig) -> CoupledRun:
    """The coupled run of `config` from its seeded random data."""
    rng = np.random.default_rng(config.seed)
    n, order = config.n_cells, 1 if config.scheme == "first" else 2
    fields = []
    for side in ("left", "right"):
        g = Grid1D(side, n, config.dx)
        v = np.zeros(n + 1)
        s = np.zeros(n + 1)
        v[g.interior] = GROWTH_AMPLITUDE * rng.standard_normal(n)
        s[g.interior] = GROWTH_AMPLITUDE * rng.standard_normal(n)
        fields.append(FluidField1D(g, v, s))
    v_body = GROWTH_AMPLITUDE * rng.standard_normal()
    return CoupledRun(order, CoupledState(*fields, v_body), config.mat, config.mat, config.mass, config.dt,
                      config.alpha, config.alpha)


def _stacked_rates(runs: list[CoupledRun], n_steps: int) -> list[float]:
    """Growth rates of `runs` (one order, one n_cells) advanced as one stack:
    per step one stencil call on the batch, each run's `couple`, and one
    renormalization of the batch.  A run whose norm reaches 0 stays at 0."""
    stack = Characteristics.stack([run.chars for run in runs])
    for run, x in zip(runs, stack.x):
        run.chars.x = x
    step = coupling.upwind_step if runs[0].order == 1 else coupling.lax_wendroff_step
    c = np.array([run.chars.mats[0].c for run in runs])
    interior = stack.x[..., 1:-1]
    mag, scale = np.empty_like(interior), np.empty((len(runs), 1, 1, 1))
    tail = max(1, n_steps // 4)
    norms = np.empty((len(runs), tail))
    for k in range(n_steps):
        step(stack)
        for run in runs:
            run.couple()
        np.abs(interior, out=mag)
        mag[..., 0, :] += mag[..., 1, :]
        peaks = (c * mag[..., 0, :].max(axis=(-2, -1))).tolist()
        norm = [max(peak, abs(run.v_body)) for peak, run in zip(peaks, runs)]
        if k >= n_steps - tail:
            norms[:, k - n_steps + tail] = norm
        scale[:, 0, 0, 0] = div = [r or 1.0 for r in norm]  # a zero state stays zero
        np.divide(stack.x, scale, out=stack.x)  # in place: no rebinding of the flat views
        for run, r in zip(runs, div):
            run.v_body /= r
            run.flux /= r
    return [0.0 if row[-1] == 0.0 else float(np.exp(np.mean(np.log(row)))) for row in norms]


def growth_rates(configs, n_steps: int = 600) -> list[float | None]:
    """Measured per-step amplification of each config: geometric mean of the
    max-norm ratio over the final quarter of a run started from small random
    data; 0.0 if the norm reaches 0, None if the solver refuses the
    configuration (SingularBodyUpdate).

    The norm is the largest of |v_body| and, over both interiors, |v| and
    |sigma|/z, i.e. c max(|w - u|, |u + w|) = c (|u| + |w|) in the run's
    characteristics.  Each run is renormalized in place after every step
    (the dynamics are linear), so growing and decaying runs are measured
    without overflow/underflow.  Runs of one scheme and n_cells advance as
    one stack; each rate is bit-identical to that of the run alone.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    rates, stacks = [None] * len(configs), {}
    for i, config in enumerate(configs):
        try:
            run = _growth_run(config)
        except SingularBodyUpdate:
            continue
        stacks.setdefault((config.scheme, config.n_cells), {})[i] = run
    for runs in stacks.values():
        for i, rate in zip(runs, _stacked_rates(list(runs.values()), n_steps)):
            rates[i] = rate
    return rates


def empirical_growth_rate(config: GrowthConfig, n_steps: int = 600) -> float | None:
    """growth_rates of the one config."""
    return growth_rates([config], n_steps)[0]
