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

import numpy as np

from .coupling import CoupledRun, CoupledState
from .coupling import step_algorithm1, step_algorithm2  # noqa: F401  looked up here by perfbench/spans.py
from .materials import FluidMaterial, Grid1D, FluidField1D

# Argument-principle contour: circles |A| = 1.01 and 1e4, sampled finely
# enough that no phase step between samples approaches pi.
INNER_RADIUS, OUTER_RADIUS, CONTOUR_SAMPLES = 1.01, 1e4, 16384

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
        if not self.dt > 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not self.z > 0.0:
            raise ValueError(f"z must be > 0, got {self.z}")
        if self.mass < 0.0:
            raise ValueError(f"mass must be >= 0, got {self.mass}")


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
    r_a = -0.5 * big / q2
    r_b = q0 / (q2 * r_a) if q0 != 0.0 else np.zeros_like(r_a)
    swap = np.abs(r_a) > np.abs(r_b)
    r_in = np.where(swap, r_b, r_a)
    r_out = np.where(swap, r_a, r_b)
    return r_in, 1.0 / r_out


# -- eigen-system determinants ----------------------------------------------


def first_order_system_matrix(A, q: StabilityQuery) -> np.ndarray:
    """3x3 interface-mode system of the first-order scheme, vectorized over
    complex A; unknowns (b_L0, a_R0, v/c).  Singular exactly at the
    amplification factors."""
    A = np.asarray(A, dtype=complex)
    lam, z, al, dt, m = q.courant, q.z, q.alpha, q.dt, q.mass
    r = (A - 1.0 + lam) / lam
    d = 1.0 + (al - z) / (2.0 * z * r)
    e = (al + z) / (2.0 * z)
    f = A * dt * (z - al) / r
    g = m * (A - 1.0) + 2.0 * dt * al * A
    out = np.zeros(A.shape + (3, 3), dtype=complex)
    out[..., 0, 0] = d
    out[..., 0, 2] = -e
    out[..., 1, 1] = d
    out[..., 1, 2] = e
    out[..., 2, 0] = f
    out[..., 2, 1] = -f
    out[..., 2, 2] = g
    return out


def second_order_system_matrix(A, q: StabilityQuery) -> np.ndarray:
    """5x5 interface-mode system of the second-order scheme, vectorized over
    complex A with |A| > 1; unknowns (a_L0, b_L0, a_R0, b_R0, v/c).

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

    def S(y):
        return 1.5 * y - 0.5 * y * y

    out = np.zeros(A.shape + (5, 5), dtype=complex)
    out[..., 0, 0] = 1.0 + y_la
    out[..., 0, 1] = -(1.0 + y_lb)
    out[..., 0, 4] = 2.0
    out[..., 1, 2] = 1.0 + r1a
    out[..., 1, 3] = -(1.0 + r1b)
    out[..., 1, 4] = 2.0
    out[..., 2, 0] = 1.0 + y_la - 2.0 * (w + 1.0) * S(y_la)
    out[..., 2, 1] = 1.0 + y_lb + 2.0 * (w - 1.0) * S(y_lb)
    out[..., 2, 4] = -2.0 * w
    out[..., 3, 2] = 1.0 + r1a + 2.0 * (w - 1.0) * S(r1a)
    out[..., 3, 3] = 1.0 + r1b - 2.0 * (w + 1.0) * S(r1b)
    out[..., 3, 4] = 2.0 * w
    out[..., 4, 0] = (w + 1.0) * S(y_la)
    out[..., 4, 1] = (1.0 - w) * S(y_lb)
    out[..., 4, 2] = -(1.0 - w) * S(r1a)
    out[..., 4, 3] = -(1.0 + w) * S(r1b)
    out[..., 4, 4] = ((A - 1.0) / (A + 1.0)) * 2.0 * q.mass / (q.dt * q.z) + 2.0 * w
    return out


def first_order_determinant(A, q: StabilityQuery):
    return np.linalg.det(first_order_system_matrix(A, q))


def second_order_determinant(A, q: StabilityQuery):
    return np.linalg.det(second_order_system_matrix(A, q))


def _winding_number(values: np.ndarray) -> int:
    mags = np.abs(values)
    if np.min(mags) == 0.0:
        raise ArithmeticError("determinant vanished on the contour")
    turns = np.angle(np.roll(values, -1) / values)
    if np.max(np.abs(turns)) > 2.5:  # phase step too close to pi: undersampled
        raise ArithmeticError("contour undersampled")
    total = turns.sum() / (2.0 * np.pi)
    w = int(round(total))
    if abs(total - w) > 1e-6:
        raise ArithmeticError(f"winding number did not close: {total}")
    return w


def count_unstable_modes(det_fn, q: StabilityQuery) -> int:
    """Number of determinant zeros in INNER_RADIUS < |A| < OUTER_RADIUS by
    the argument principle (winding difference between the two circles).

    Both circles must avoid zeros; the determinant is analytic in the
    annulus because the spatial-root selection is unambiguous for |A| > 1.
    """
    theta = np.linspace(0.0, 2.0 * np.pi, CONTOUR_SAMPLES, endpoint=False)
    ring = np.exp(1j * theta)
    w_in = _winding_number(det_fn(INNER_RADIUS * ring, q))
    w_out = _winding_number(det_fn(OUTER_RADIUS * ring, q))
    return w_out - w_in


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
        if not 0.0 < self.courant <= 1.0:
            raise ValueError("courant must be in (0, 1]")

    @property
    def dx(self) -> float:
        return self.mat.c * self.dt / self.courant


def empirical_growth_rate(config: GrowthConfig, n_steps: int = 600) -> float:
    """Measured per-step amplification: geometric mean of the max-norm
    ratio over the final quarter of a run started from small random data.

    The norm is the largest of |v_body| and, over both interiors, |v| and
    |sigma|/z, i.e. c max(|w - u|, |u + w|) = c (|u| + |w|) in the run's
    characteristics.  The run is renormalized in place after every step
    (the dynamics are linear), so growing and decaying runs are measured
    without overflow/underflow.
    """
    rng = np.random.default_rng(config.seed)
    n, dx = config.n_cells, config.dx
    order = 1 if config.scheme == "first" else 2

    fields = []
    for side in ("left", "right"):
        g = Grid1D(side, n, dx)
        v = np.zeros(n + 1)
        s = np.zeros(n + 1)
        v[g.interior] = GROWTH_AMPLITUDE * rng.standard_normal(n)
        s[g.interior] = GROWTH_AMPLITUDE * rng.standard_normal(n)
        fields.append(FluidField1D(g, v, s))
    v_body = GROWTH_AMPLITUDE * rng.standard_normal()
    state = CoupledState.initial(*fields, v_body, config.alpha, config.alpha, order)
    run = CoupledRun(order, state, config.mat, config.mat, config.mass, config.dt,
                     config.alpha, config.alpha)

    c = config.mat.c
    interior = run.chars.x[:, :, 1:-1]
    mag = np.empty_like(interior)
    log_ratios = np.empty(n_steps)
    for k in range(n_steps):
        run.step()
        np.abs(interior, out=mag)
        mag[:, 0] += mag[:, 1]
        norm = max(c * float(mag[:, 0].max()), abs(run.v_body))
        if norm == 0.0:
            return 0.0
        log_ratios[k] = np.log(norm)
        run.rescale(norm)
    tail = max(1, n_steps // 4)
    return float(np.exp(np.mean(log_ratios[-tail:])))
