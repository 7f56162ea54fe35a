"""Normal-mode stability analysis of the partitioned interface schemes.

Interface modes of the semi-discrete coupled problem have the form
u_i^n = A^n r^i; eliminating the spatial structure leaves small linear
systems in the mode amplitudes whose singularity condition determines the
per-step amplification A.  The first-order (upwind + backward-Euler body)
scheme gives a 3x3 system with closed-form roots; the second-order
(Lax-Wendroff + trapezoidal body) scheme gives a 5x5 system whose
determinant is counted for zeros with |A| > 1 by argument-principle winding
on circles enclosing the exterior of the unit disk.  Both sides share one
impedance and one Courant number, so the two characteristic families have
reciprocal spatial roots and that determinant factors by mirror symmetry.

Conventions: lambda = c dt/dx; xi = dt/m_b; the rightward characteristic
family sees effective advection nu = -lambda, the leftward family
nu = +lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from sys import float_info

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
UNIT = FluidMaterial(1.0, 1.0)  # the material of every growth run, posed in its own variables
# A growth stack is rescaled by exact powers of two, so its rates do not move:
# each member to its norm's exponent every RESCALE_PERIOD steps (decaying members
# stay normal floats) and whenever the stack's largest entry leaves [RESCALE_LOW,
# RESCALE_HIGH], kept narrow so that |C| |y| stays below the largest float.
RESCALE_LOW, RESCALE_HIGH, RESCALE_PERIOD = 2.0 ** -32, 2.0 ** 32, 16


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

    Vieta gives both from the larger of q1 +- disc, with no division by q2 to
    overflow at a tiny nu.  At nu = -1 (lambda = 1, rightward family) the
    outside root escapes to infinity, so its reciprocal is 0."""
    A = np.asarray(A, dtype=complex)
    if abs(nu + 1.0) < 1e-14:
        return 1.0 / A, np.zeros_like(A)
    q2 = 0.5 * (nu + nu * nu)
    q1 = 1.0 - A - nu * nu
    q0 = 0.5 * (nu * nu - nu)
    disc = np.sqrt(q1 * q1 - 4.0 * q2 * q0)
    big = np.where(np.abs(q1 + disc) >= np.abs(q1 - disc), q1 + disc, q1 - disc)
    return -2.0 * q0 / big, -2.0 * q2 / big


# -- eigen-system determinants ----------------------------------------------


class ContourFailure(ArithmeticError):
    """The argument-principle mode count could not be certified."""


def second_order_determinant(A, q: StabilityQuery):
    """det of the 5x5 second-order interface-mode system at |A| > 1 in the unknowns
    (a_L0, b_L0, a_R0, b_R0, v/c), without building it.  Left-domain modes carry each
    family's outside spatial root (by its reciprocal), right-domain modes its inside
    root, through S(x) = (3x - x^2)/2, the quadratic edge extrapolation.  Both sides
    have one impedance and one Courant number, so the leftward family (nu = +lambda)
    is the rightward one (nu = -lambda) with r -> 1/r, and one call gives both: rho,
    the rightward inside root, and y, the reciprocal of its outside root, swap roles
    on the left.  The right fluid block (rows 1, 3) is then the left one P (rows 0, 2)
    with its columns swapped and its first row negated, and the right half of the body
    row (the trapezoidal update, net force sigma_I(right) - sigma_I(left)) is minus its
    left half r, swapped; block elimination gives det = det_P (2 r adj(P) p - t det_P),
    p = (2, -2w), w = alpha/z, t the body's own entry.  det_P is free of m and dt."""
    A, w = np.asarray(A, dtype=complex), q.alpha / q.z
    rho, y = _lw_family_vec(-q.courant, A)
    s_rho, s_y = (1.5 * x - 0.5 * x * x for x in (rho, y))
    p00, p01 = 1.0 + y, -(1.0 + rho)
    p10, p11 = 1.0 + y - 2.0 * (w + 1.0) * s_y, 1.0 + rho + 2.0 * (w - 1.0) * s_rho
    det_p = p00 * p11 - p01 * p10
    r_adj_p = (w + 1.0) * s_y * (p11 + w * p01) - (1.0 - w) * s_rho * (w * p00 + p10)  # r adj(P) p / 2
    t = ((A - 1.0) / (A + 1.0)) * 2.0 * q.mass / (q.dt * q.z) + 2.0 * w
    return det_p * (4.0 * r_adj_p - t * det_p)


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


def _growth_run(config: GrowthConfig) -> CoupledRun:
    """The coupled run of `config` in the problem's own variables: unit c and z,
    dt = 1, dx = 1/lambda, mass mu = m/(z dt) and weight alpha/z; its seeded draws
    of v and v_body are divided by c and of sigma by kappa, so its characteristics
    are the config's.  mu is one division (a subnormal dt costs no digits), held at
    the largest float (an immovable body) past it or where z dt underflows, m > 0."""
    mat, rng, order = config.mat, np.random.default_rng(config.seed), 1 if config.scheme == "first" else 2
    n, z_dt, w = config.n_cells, mat.z * config.dt, config.alpha / mat.z
    mu = min(config.mass / z_dt, float_info.max) if z_dt else float_info.max * (config.mass > 0.0)
    fields = []
    for side in ("left", "right"):
        g = Grid1D(side, n, 1.0 / config.courant)
        v = np.zeros(n + 1)
        s = np.zeros(n + 1)
        v[g.interior] = GROWTH_AMPLITUDE * rng.standard_normal(n) / mat.c
        s[g.interior] = GROWTH_AMPLITUDE * rng.standard_normal(n) / mat.kappa
        fields.append(FluidField1D(g, v, s))
    v_body = GROWTH_AMPLITUDE * rng.standard_normal() / mat.c
    return CoupledRun(order, CoupledState(*fields, v_body), UNIT, UNIT, mu, 1.0, w, w)


def _stacked_rates(runs: list[CoupledRun], n_steps: int) -> list[float]:
    """Growth rates of `runs` (one n_cells, first-order runs first, all at unit c and z)
    advanced as one stack: per step one stencil call on each order's part of the batch,
    then one coupling of all members through their interface matrices C (`coupling.interface_matrix`,
    which spends a run, so each is read and stacked first).  A rate is (N_end / N_start)**(1/tail),
    log N = log(mantissa) + (exponent + shift) ln 2; a run whose norm reaches 0 reads 0."""
    b, tail = len(runs), max(1, n_steps // 4)
    stack, n1 = Characteristics.stack([run.chars for run in runs]), sum(run.order == 1 for run in runs)
    parts = [(step, stack.part(i, j)) for step, i, j in
             ((coupling.upwind_step, 0, n1), (coupling.lax_wendroff_step, n1, b)) if i < j]
    # a member's row of `buf` is (ghosts, v_body, flux, cells); C y reads the last ten and writes the first six
    # mag takes x's memory order (family-major), so |x| is one contiguous pass
    buf, prod, mag = np.empty((b, 14)), np.empty((b, 6, 10)), np.empty_like(stack.x)
    buf[:, 4:6] = [[run.v_body, run.flux] for run in runs]
    cmat = np.array([coupling.interface_matrix(run) for run in runs])
    y, out, body = buf[:, None, 4:], buf[:, :6], buf[:, 4:6]
    cells, ghosts = buf[:, 6:].reshape(b, 2, 2, 2), buf[:, :4].reshape(b, 2, 2)
    inner, shift = mag[..., 1:-1], np.zeros(b, np.int64)  # N = 2**shift max(S, |stored v_body|)
    logs = {n_steps - tail: np.zeros(b), n_steps: None}  # the unstepped state counts as norm 1
    for k in range(1, n_steps + 1):
        for step, part in parts:
            step(part)
        np.copyto(cells, stack.x[..., 1:3])
        np.multiply(cmat, y, out=prod)  # then summed per row in an order free of b
        np.add.reduce(prod, axis=-1, out=out)
        np.copyto(stack.x[..., 0], ghosts)
        top = np.abs(stack.x, out=mag).max()
        if k in logs or k % RESCALE_PERIOD == 0 or not RESCALE_LOW <= top <= RESCALE_HIGH:
            inner[..., 0, :] += inner[..., 1, :]
            mant, ex = np.frexp(np.maximum(inner[..., 0, :].max(axis=(-2, -1)), np.abs(body[:, 0])))
            if k in logs:
                logs[k] = np.log(np.where(mant == 0.0, 1.0, mant)) + (ex + shift) * np.log(2.0)
            np.ldexp(stack.x, -ex[:, None, None, None], out=stack.x)
            np.ldexp(body, -ex[:, None], out=body)
            shift += ex
    start, end = logs.values()
    return [0.0 if m == 0.0 else float(r) for m, r in zip(mant, np.exp((end - start) / tail))]


def growth_rates(configs, n_steps: int = 600) -> list[float | None]:
    """Measured per-step amplification of each config: geometric mean of the
    max-norm ratio over the final quarter of a run started from small random
    data; 0.0 if the norm reaches 0, NaN (or inf) if the run leaves the float
    range, and None if the solver refuses the configuration (SingularBodyUpdate).

    The norm is the largest of |v_body| and, over both interiors, |v| and |sigma|/z,
    i.e. c max(|w - u|, |u + w|) = c (|u| + |w|) in the run's characteristics.
    Each run is posed at unit c and z (`_growth_run`), where the norm reads 1/c of
    it, so the rate is the config's at any scale.  The dynamics are linear, so each
    run is rescaled in place by exact powers of two, and only when needed; growing
    and decaying runs are measured without overflow or underflow, and the rate does
    not depend on when the rescales happen.  Runs of one n_cells advance as one
    stack, each order stepping its own part of it; each rate is bit-identical to
    that of the run alone.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    rates, stacks = [None] * len(configs), {}
    for i, config in enumerate(configs):
        try:
            run = _growth_run(config)
        except SingularBodyUpdate:
            continue
        stacks.setdefault(config.n_cells, {})[i] = run
    for runs in stacks.values():
        runs = sorted(runs.items(), key=lambda item: item[1].order)  # first order first
        for (i, _), rate in zip(runs, _stacked_rates([run for _, run in runs], n_steps)):
            rates[i] = rate
    return rates


def empirical_growth_rate(config: GrowthConfig, n_steps: int = 600) -> float | None:
    """growth_rates of the one config."""
    return growth_rates([config], n_steps)[0]
