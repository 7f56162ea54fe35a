"""Closed-form solution of the two-fluid / rigid-body model problem.

A Gaussian displacement pulse travels rightward through the left fluid,
strikes the (zero-width) body at the origin, and partially transmits into
the right fluid.  d'Alembert decomposition on each side plus the interface
balance reduce the body motion to the scalar ODE

    m vb' + (z_L + z_R) vb = g(t),      vb(0) = V0(0),

whose forcing g collects the incident characteristics.  The ODE integrates
in closed form into exponential-times-erf terms.  Written plainly those
terms cancel catastrophically for small m and overflow once z/(m beta c) is
large, so for m > 0 each product e^P erfc(X) is evaluated through the
scaled complement erfcx with the exponent differences P - X^2 simplified
analytically.  A light body, w = 2 beta max(c) m / Zt <= 1e-17 with
Zt = z_L + z_R, takes the m -> 0 limit with its initial layer instead,
vb = g/Zt + (V0(0) - g(0)/Zt) e^(-Zt t/m), within about 5e-16 of max |vb| of
the erfcx form at that bound; at m = 0 the layer is 0 and vb = g/Zt.
The body displacement is closed form too: the ODE integrated over (0, t)
gives (z_L + z_R) int vb = int g - m (vb(t) - vb(0)), and int g is a sum of
erf terms.

Initial data (pulse centered at x0 < 0, width 1/beta):

    U0(x)  = -(sqrt(pi)/(4 beta)) erf(beta (x - x0))
    U0'(x) = -(1/2) exp(-beta^2 (x - x0)^2)
    V0(x)  = (c_L/2) exp(-beta^2 (x - x0)^2)

so the pulse is purely right-moving in the left medium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import sqrt, pi

import numpy as np

from .materials import FluidMaterial


class DomainError(ValueError, ArithmeticError):
    """Evaluation requested outside the solution's space-time domain."""


@dataclass(frozen=True)
class ModelProblem:
    """Two acoustic half-lines coupled to a point body of mass m_body."""

    mat_left: FluidMaterial
    mat_right: FluidMaterial
    m_body: float
    beta: float = 10.0
    x0: float = -0.5

    def __post_init__(self):
        if self.m_body < 0.0 or not np.isfinite(self.m_body):
            raise ValueError(f"m_body must be >= 0, got {self.m_body}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not self.x0 < 0.0:
            raise ValueError(f"pulse center x0 must be < 0, got {self.x0}")

    @property
    def z_total(self) -> float:
        return self.mat_left.z + self.mat_right.z

    # -- initial data ------------------------------------------------------

    def displacement0(self, x):
        y = self.beta * (np.asarray(x, float) - self.x0)
        return -(sqrt(pi) / (4.0 * self.beta)) * _libm(math.erf, y)

    def strain0(self, x):
        return -0.5 * _gaussian(self.beta, np.asarray(x, float) - self.x0)

    def velocity0(self, x):
        return (self.mat_left.c / 2.0) * _gaussian(self.beta, np.asarray(x, float) - self.x0)


def _gaussian(beta, y):
    """exp(-(beta y)^2); where beta y or its square overflows, its limit 0."""
    with np.errstate(over="ignore"):
        return np.exp(-(beta * y) ** 2)


def _incident_waves(prob: ModelProblem):
    """(outward sign s, speed c, amplitude a) of the wave that reaches the
    body from each side: g(t) = sum a exp(-beta^2 (c t - s x0)^2)."""
    cl, cr = prob.mat_left.c, prob.mat_right.c
    return ((-1.0, cl, prob.mat_left.z * cl), (1.0, cr, 0.5 * prob.mat_right.z * (cl - cr)))


def body_ode_forcing(prob: ModelProblem, t):
    """g(t): incident-characteristic forcing in m vb' + (zL+zR) vb = g."""
    t = np.asarray(t, dtype=float)
    b, x0 = prob.beta, prob.x0
    return sum(a * _gaussian(b, c * t - s * x0) for s, c, a in _incident_waves(prob))


def _libm(f, x):
    """The math-module function f at every element of x, as an array of x's shape."""
    x = np.asarray(x, float)
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


# erfc(26) = 5.7e-296 is still normal, and from 26 up the series below leaves out terms under 2e-19
_ERFCX_EDGE = 26.0
# (-1)^k (2k-1)!! / 2^k for k = 7 down to 0: A&S 7.1.23 in powers of u = 1/x^2
_ERFCX_SERIES = np.cumprod([1.0] + [(1 - 2 * k) / 2 for k in range(1, 8)])[::-1]


def _erfcx(x):
    """The scaled complement e^(x^2) erfc(x) for x >= 0, within 4 ulp.

    Below the edge, libm's erfc times e^(x^2), with x^2 split exactly into
    hi + lo (Veltkamp/Dekker) and e^(x^2) taken as e^hi (1 + lo), so the
    rounding of x^2 costs nothing; from the edge up, the asymptotic series
    (1/(x sqrt(pi))) sum (-1)^k (2k-1)!!/(2x^2)^k in Horner form on
    u = (1/x)^2, which overflows nothing up to the largest float.
    """
    near = x < _ERFCX_EDGE
    if near.all():
        return _erfcx_near(x)
    u = 1.0 / np.maximum(x, _ERFCX_EDGE)
    far = u / sqrt(pi) * np.polyval(_ERFCX_SERIES, u * u)
    return np.where(near, _erfcx_near(np.minimum(x, _ERFCX_EDGE)), far) if near.any() else far


def _erfcx_near(x):
    hi = x * x
    t = 134217729.0 * x  # 2^27 + 1 splits x into xh + xl, each of at most 26 bits
    xh = t - (t - x)
    xl = x - xh
    lo = ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl  # x^2 - hi, exactly
    return _libm(math.erfc, x) * (np.exp(hi) * (1.0 + lo))


def _exp_p_erfc(p, p_minus_x2, x):
    """e^p erfc(x) with p and p - x^2 supplied separately; x broadcasts to p.

    Both signs take the (always representable) e^{p-x^2} erfcx(|x|); for
    x < 0 the complement identity e^p erfc(x) = 2 e^p - e^{p-x^2} erfcx(-x)
    needs e^p itself, which is safe because p <= 0 whenever an argument goes
    negative in this solution.
    """
    out = np.exp(p_minus_x2) * _erfcx(np.abs(x))
    neg = np.broadcast_to(np.less(x, 0.0), out.shape)
    if neg.any():
        out[neg] = 2.0 * np.exp(p[neg]) - out[neg]
    return out


def _vb_response(prob: ModelProblem, t: np.ndarray, s, c, a) -> np.ndarray:
    """Response of m vb' + Zt vb = a exp(-beta^2 (c t - s x0)^2) from rest (m > 0);
    s, c and a may be columns, one incident wave per row.

    With q = c t - s x0 and r = Zt/(2 c beta m) the integral is
    -(a sqrt(pi)/(2 c beta m)) e^P (erf A - erf B), where

        A = r - beta q    B = r + beta s x0    P = r^2 - 2 (r beta) q,

    and e^P (erf A - erf B) = e^P erfc(B) - e^P erfc(A) is evaluated from the
    simplified exponents P - A^2 = -beta^2 q^2 and P - B^2 = -Zt t/m - beta^2 x0^2,
    so no factor overflows for any m > 0; 2 c beta m is never squared, so a
    heavy body (r near 0) at most takes r and the prefactor to 0, and
    r beta = Zt/(2 c m) is formed directly, so r = 0 at a huge beta leaves
    no 0 * inf in P.
    """
    zt, m, b, x0 = prob.z_total, prob.m_body, prob.beta, prob.x0
    b2 = b * b
    q = c * t - s * x0
    with np.errstate(over="ignore"):  # a denominator past the largest float: that factor is 0
        r, rb, pref = zt / (2.0 * c * m * b), zt / (2.0 * c * m), -a * sqrt(pi) / (2.0 * c * b * m)
    p = r * r - 2.0 * rb * q
    big_a = r - b * q
    big_b = r + b * s * x0
    return pref * (_exp_p_erfc(p, -zt * t / m - b2 * x0 * x0, big_b)
                   - _exp_p_erfc(p, -b2 * q * q, big_a))


def body_velocity_exact(prob: ModelProblem, t):
    """Exact body velocity at time(s) t >= 0."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise DomainError("t must be >= 0")
    zt, m = prob.z_total, prob.m_body
    if 2.0 * prob.beta * max(prob.mat_left.c, prob.mat_right.c) * m / zt <= 1e-17:  # a light body
        out = body_ode_forcing(prob, t_arr) / zt
        if m > 0.0:  # the initial layer; -Zt t/m is -inf at a subnormal m, and its exp exactly 0
            with np.errstate(over="ignore"):
                layer = np.exp(-zt * t_arr / m)
            out = out + (prob.velocity0(0.0) - body_ode_forcing(prob, 0.0) / zt) * layer
    else:
        tt = t_arr.reshape(-1)
        # free decay of vb(0) = V0(0), plus the responses to both incident waves, one row each
        s, c, a = np.array(_incident_waves(prob)).T[:, :, None]
        out = prob.velocity0(0.0) * np.exp(-zt * tt / m) + _vb_response(prob, tt, s, c, a).sum(axis=0)
    out = out.reshape(t_arr.shape)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def body_displacement_exact(prob: ModelProblem, t):
    """Exact body displacement U0(0) + int_0^t vb, from the body ODE integrated
    over (0, t): Zt int vb = int g - m (vb(t) - vb(0)), where each incident wave
    of g, with q = c t - s x0, integrates to a sqrt(pi)/(2 beta c) [erf(beta q)]_0^t."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise DomainError("t must be >= 0")
    b, x0 = prob.beta, prob.x0
    impulse = sum(a * sqrt(pi) / (2.0 * b * c) * (_libm(math.erf, b * (c * t_arr - s * x0))
                                                   - math.erf(-b * s * x0))
                  for s, c, a in _incident_waves(prob))
    if prob.m_body > 0.0:
        impulse = impulse - prob.m_body * (body_velocity_exact(prob, t_arr) - prob.velocity0(0.0))
    out = prob.displacement0(0.0) + impulse / prob.z_total
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def field_exact(prob: ModelProblem, side: str, x, t: float):
    """Exact (v, sigma) on one side at time t (x may be a vector).

    With s the outward sign of the side (-1 left, +1 right), each side
    carries an incoming wave, always direct, and an outgoing wave: direct
    where its foot x - s c t lies on this side, else the reflection off the
    body, which carries the body velocity history.
    """
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    if not t >= 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    x = np.asarray(x, dtype=float)
    scalar_in = x.ndim == 0
    x = np.atleast_1d(x)
    s = -1.0 if side == "left" else 1.0
    if np.any(s * x < 0.0):
        raise DomainError(f"{side}-side x must satisfy {'x <= 0' if s < 0 else 'x >= 0'}")

    mat = prob.mat_left if side == "left" else prob.mat_right
    c = mat.c

    def wave(xi, d):  # d/dxi of the primitive moving in direction d
        return 0.5 * (prob.strain0(xi) - d * prob.velocity0(xi) / c)

    inc = wave(x + s * c * t, -s)
    xi_out = x - s * c * t
    out = wave(xi_out, s)
    refl = (xi_out < 0.0) ^ (s < 0.0)  # left reflects at xi >= 0, right at xi < 0
    if np.any(refl):
        xi_r = xi_out[refl]
        out[refl] = -s * body_velocity_exact(prob, -s * xi_r / c) / c + wave(-xi_r, -s)

    v = s * c * (inc - out)
    sigma = mat.kappa * (inc + out)
    if scalar_in:
        return float(v[0]), float(sigma[0])
    return v, sigma
