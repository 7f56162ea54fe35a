"""Closed-form solution checked against independent solves of the body ODE.

The body velocity satisfies m vb' + (zL+zR) vb = g(t) with vb(0) = V0(0);
its Duhamel integral by scipy quadrature, or a stiff Radau solve at tight
tolerances, gives an oracle that shares only g with the closed form.
"""

import math
import re
import warnings
from dataclasses import replace
from math import sqrt

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.special import erf, erfcx

from bodywave.materials import FluidMaterial
from bodywave.exact import (
    _ERFCX_EDGE,
    DomainError,
    ModelProblem,
    _erfcx,
    _incident_waves,
    _libm,
    _vb_response,
    body_displacement_exact,
    body_ode_forcing,
    body_velocity_exact,
    field_exact,
)

T_GRID = np.linspace(0.0, 0.75, 31)


def _standard(m_body):
    """The reference setup: rho = 1 on both sides, c_L = sqrt(2), c_R = sqrt(3)."""
    return ModelProblem(FluidMaterial(1.0, sqrt(2.0)), FluidMaterial(1.0, sqrt(3.0)), m_body)


@pytest.mark.parametrize("make, error, message", [
    (lambda: replace(_standard(1.0), beta=0.0), ValueError, "beta must be > 0, got 0.0"),
    (lambda: replace(_standard(1.0), beta=-1.0), ValueError, "beta must be > 0, got -1.0"),
    (lambda: replace(_standard(1.0), x0=0.0), ValueError, "pulse center x0 must be < 0, got 0.0"),
    (lambda: replace(_standard(1.0), x0=0.5), ValueError, "pulse center x0 must be < 0, got 0.5"),
    (lambda: body_displacement_exact(_standard(1.0), -0.1), DomainError, "t must be >= 0"),
    (lambda: body_displacement_exact(_standard(0.0), np.array([0.0, -1e-9])), DomainError,
     "t must be >= 0"),
], ids=["beta-zero", "beta-negative", "x0-zero", "x0-positive", "t-negative", "t-array-negative"])
def test_model_problem_inputs_are_refused(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


def _stress0(prob, x, side):
    """Initial stress kappa U0'(x) on one side."""
    mat = prob.mat_left if side == "left" else prob.mat_right
    return mat.kappa * prob.strain0(x)


def _duhamel_oracle(prob, times):
    """v(t) = v0 e^(-Zt/m) + (1/m) int_0^t e^(-Z(t-s)/m) g(s) ds by quadrature.

    With sigma = Z (t - s)/m the integral is (1/Z) int_0^(Zt/m) e^(-sigma)
    g(t - m sigma/Z) dsigma, whose kernel has unit width at every m > 0; it is
    split at sigma = 50, past which e^(-sigma) < 2e-22 leaves only a tail."""
    z, m = prob.z_total, prob.m_body
    v0 = float(prob.velocity0(0.0))
    out = []
    for t in times:
        def integrand(sigma):
            return np.exp(-sigma) * float(body_ode_forcing(prob, t - m * sigma / z))

        top = z * t / m
        pieces = ((0.0, min(top, 50.0)), (min(top, 50.0), top))
        total = sum(quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                    for lo, hi in pieces if hi > lo)
        out.append(v0 * np.exp(-top) + total / z)
    return np.array(out)


def _ode_oracle(prob, times):
    z = prob.z_total

    def rhs(t, y):
        return [(body_ode_forcing(prob, t) - z * y[0]) / prob.m_body]

    sol = solve_ivp(
        rhs,
        (0.0, float(times[-1])),
        [float(prob.velocity0(0.0))],
        method="Radau",
        t_eval=times,
        rtol=1e-12,
        atol=1e-14,
    )
    assert sol.success
    return sol.y[0]


@pytest.mark.parametrize("m,rho", [
    *(pytest.param(m, 1.0, id=str(m)) for m in (1.0, 1e-2, 1e-6, 0.0999, 0.1001)),
    # dense fluids, where z/(m beta c) is large at moderate mass
    *(pytest.param(m, rho, id=f"rho={rho}-{m}")
      for rho, m in ((100.0, 0.5), (100.0, 2.0), (10.0, 0.5))),
])
def test_body_velocity_matches_ode_oracle(m, rho):
    prob = ModelProblem(FluidMaterial(rho, sqrt(2.0)), FluidMaterial(rho, sqrt(3.0)), m)
    with np.errstate(over="raise", invalid="raise"):  # no overflow, no NaN
        got = body_velocity_exact(prob, T_GRID)
    # Radau where it is cheap (the stiff m = 1e-6), the Duhamel quadrature elsewhere
    ref = (_ode_oracle if m == 1e-6 else _duhamel_oracle)(prob, T_GRID)
    err = np.max(np.abs(got - ref))
    assert err < 1e-8, f"m={m}, rho={rho}: closed form vs ODE oracle differ by {err:.3e}"


def test_heavy_body_keeps_its_initial_velocity():
    """At m = 1e300 the waves cannot move the body, and the closed form, which
    never squares 2 c beta m, gives V0(0) without overflow."""
    prob = _standard(1e300)
    v0 = float(prob.velocity0(0.0))
    with np.errstate(over="raise", invalid="raise"):
        got = body_velocity_exact(prob, T_GRID)
    assert np.max(np.abs(got - v0)) <= 1e-15 * v0


def test_zero_mass_is_quasi_steady_limit():
    prob = _standard(0.0)
    got = body_velocity_exact(prob, T_GRID)
    assert np.allclose(got, body_ode_forcing(prob, T_GRID) / prob.z_total, rtol=0, atol=0)
    # the m -> 0 closed form approaches it
    tiny = _standard(1e-10)
    t = T_GRID[T_GRID > 1e-3]
    assert np.max(np.abs(body_velocity_exact(tiny, t) - body_velocity_exact(prob, t))) < 1e-8


def _erfcx_form(prob, t):
    """The body velocity as body_velocity_exact takes it for every m above the light-body bound."""
    return prob.velocity0(0.0) * np.exp(-prob.z_total * t / prob.m_body) + sum(
        _vb_response(prob, t, *wave) for wave in _incident_waves(prob))


@pytest.mark.parametrize("rho", [1e-3, 1.0, 100.0])
def test_light_body_form_meets_the_erfcx_form_at_its_bound(rho):
    """At w = 2 beta max(c) m / Zt = 1e-17 the light-body form (just below)
    and the erfcx form (just above) agree within 1e-15 of max |vb|."""
    t = np.linspace(0.0, 0.75, 401)
    mats = FluidMaterial(rho, sqrt(2.0)), FluidMaterial(rho, sqrt(3.0))
    bound = 1e-17 * (mats[0].z + mats[1].z) / (2.0 * 10.0 * sqrt(3.0))
    light, heavy = (ModelProblem(*mats, bound * k) for k in (1.0 - 1e-14, 1.0 + 1e-14))
    w = [2.0 * p.beta * sqrt(3.0) * p.m_body / p.z_total for p in (light, heavy)]
    assert w[0] <= 1e-17 < w[1]
    above = body_velocity_exact(heavy, t)
    assert np.array_equal(above, _erfcx_form(heavy, t))
    assert np.max(np.abs(body_velocity_exact(light, t) - above)) <= 1e-15 * np.max(np.abs(above))


@pytest.mark.parametrize("m", [1e-320, 5e-324])
def test_subnormal_mass_is_the_massless_body_after_its_initial_layer(m):
    """At a subnormal m, where the erfcx form gives NaN at every time, the
    initial layer e^(-Zt t/m) is exactly 0 for t > 0 and 1 at t = 0."""
    with np.errstate(all="raise"):
        got = body_velocity_exact(_standard(m), T_GRID)
    assert got[0] == _standard(m).velocity0(0.0)
    assert np.array_equal(got[1:], body_velocity_exact(_standard(0.0), T_GRID[1:]))


def test_initial_velocity_matches_ic():
    for m in [1.0, 1e-2, 1e-4]:
        prob = _standard(m)
        v0 = float(prob.velocity0(0.0))
        assert abs(body_velocity_exact(prob, 0.0) - v0) < 1e-14 * max(1.0, abs(v0)) + 1e-16


def test_fields_at_t0_reproduce_initial_data():
    prob = _standard(1.0)
    xl = np.linspace(-2.0, 0.0, 41)
    v, s = field_exact(prob, "left", xl, 0.0)
    assert np.allclose(v, prob.velocity0(xl), atol=1e-15)
    assert np.allclose(s, _stress0(prob, xl, "left"), atol=1e-15)
    xr = np.linspace(0.0, 2.0, 41)
    v, s = field_exact(prob, "right", xr, 0.0)
    assert np.allclose(v, prob.velocity0(xr), atol=1e-15)
    assert np.allclose(s, _stress0(prob, xr, "right"), atol=1e-15)


def test_initial_pulse_is_right_moving():
    # left-moving characteristic b = (sigma + z v)/(2 c z) vanishes at t = 0
    prob = _standard(1.0)
    x = np.linspace(-2.0, 0.0, 101)
    z, c = prob.mat_left.z, prob.mat_left.c
    b = (_stress0(prob, x, "left") + z * prob.velocity0(x)) / (2 * c * z)
    assert np.max(np.abs(b)) < 1e-16


@pytest.mark.parametrize("m", [1.0, 1e-2, 1e-6])
def test_interface_velocity_continuity(m):
    prob = _standard(m)
    for t in [0.1, 0.35, 0.6]:
        vb = body_velocity_exact(prob, t)
        vl, _ = field_exact(prob, "left", 0.0, t)
        vr, _ = field_exact(prob, "right", 0.0, t)
        assert abs(vl - vb) < 1e-13, f"left trace vs body at t={t}"
        assert abs(vr - vb) < 1e-13, f"right trace vs body at t={t}"


def test_causality_far_field_independent_of_mass():
    heavy = _standard(1.0)
    light = _standard(1e-3)
    t = 0.4
    x = np.linspace(-2.0, -1.01 * heavy.mat_left.c * t, 25)  # x < -c_L t
    v1, s1 = field_exact(heavy, "left", x, t)
    v2, s2 = field_exact(light, "left", x, t)
    assert np.array_equal(v1, v2) and np.array_equal(s1, s2)


def test_displacement_starts_at_initial_offset_and_integrates_velocity():
    for m, rho in [(1.0, 1.0), (1e-6, 1.0), (0.0, 1.0), (0.5, 100.0), (0.0, 100.0)]:
        prob = ModelProblem(FluidMaterial(rho, sqrt(2.0)), FluidMaterial(rho, sqrt(3.0)), m)
        u0 = float(prob.displacement0(0.0))
        assert body_displacement_exact(prob, 0.0) == pytest.approx(u0, abs=1e-15)
        for t in [0.2, 0.75]:
            ref, err = quad(
                lambda s: body_velocity_exact(prob, s), 0.0, t,
                epsabs=1e-14, epsrel=1e-14, limit=500,
            )
            assert err < 1e-12
            got = body_displacement_exact(prob, t)
            assert abs(got - (u0 + ref)) < 1e-10, f"m={m}, rho={rho}, t={t}: {got} vs {u0 + ref}"


def test_displacement_vector_matches_scalar_calls():
    prob = _standard(1e-2)
    ts = np.array([0.3, 0.05, 0.75, 0.0, 0.3])
    vec = body_displacement_exact(prob, ts)
    for ti, ui in zip(ts, vec):
        assert abs(body_displacement_exact(prob, float(ti)) - ui) < 1e-12


def test_domain_errors():
    prob = _standard(1.0)
    with pytest.raises(DomainError):
        body_velocity_exact(prob, -0.1)
    with pytest.raises(DomainError):
        field_exact(prob, "left", np.array([-1.0, 0.5]), 0.1)
    with pytest.raises(DomainError):
        field_exact(prob, "right", -0.5, 0.1)
    with pytest.raises(DomainError):
        field_exact(prob, "left", -1.0, -0.1)
    with pytest.raises(DomainError):
        field_exact(prob, "up", -1.0, 0.1)
    with pytest.raises(ValueError):
        _standard(-1.0)


def test_transmitted_wave_appears_only_behind_front():
    prob = _standard(1e-2)
    t = 0.5
    cr = prob.mat_right.c
    ahead = np.linspace(1.05 * cr * t, 2.0, 11)
    v, s = field_exact(prob, "right", ahead, t)
    # only the (numerically negligible) direct tail of the pulse lives there
    assert np.max(np.abs(v)) < 1e-10
    behind = np.linspace(0.0, 0.95 * cr * t, 11)
    vb_, _ = field_exact(prob, "right", behind, t)
    assert np.max(np.abs(vb_)) > 1e-3


# a uniform sweep across erfcx's branch edge, a log sweep up to 1e300, and the
# edge's 50 float neighbours on each side
ACCURACY_POINTS = np.concatenate([np.linspace(0.0, 40.0, 4001), np.geomspace(1e-300, 1e300, 2001),
                                  _ERFCX_EDGE + np.arange(-50, 50) * np.spacing(_ERFCX_EDGE)])


def test_erfcx_matches_scipy_on_both_sides_of_its_edge():
    """Within 8 ulp of scipy's erfcx, the bound measured over 301,001 points
    in [0, 1e300] (9.2e-16 relative, near x = 1e-6).  Against 40-digit mpmath
    the numpy erfcx read at most 4 ulp there, and scipy's own value up to 8."""
    assert (ACCURACY_POINTS < _ERFCX_EDGE).sum() > 1000 and (ACCURACY_POINTS >= _ERFCX_EDGE).sum() > 1000
    got, want = _erfcx(ACCURACY_POINTS), erfcx(ACCURACY_POINTS)
    ulps = np.abs(got - want) / np.spacing(want)
    assert np.max(ulps) <= 8, f"{np.max(ulps)} ulp at x = {ACCURACY_POINTS[np.argmax(ulps)]!r}"


def test_erf_matches_scipy():
    """libm's erf, mapped, within 2 ulp of scipy's (the bound measured)."""
    x = np.concatenate([-ACCURACY_POINTS, ACCURACY_POINTS])
    got, want = _libm(math.erf, x), erf(x)
    assert np.max(np.abs(got - want) / np.spacing(np.abs(want))) <= 2


@pytest.mark.parametrize("x", [0.0, 5e-324, np.nextafter(_ERFCX_EDGE, 0.0), _ERFCX_EDGE,
                               1e154, 1e300, 1.7e308],
                         ids=["zero", "subnormal", "below-edge", "edge", "1e154", "1e300", "1.7e308"])
def test_erfcx_and_erf_at_extreme_points_warn_nothing(x):
    """A scalar, a one-point array and a two-point array that may straddle
    the edge all agree with scipy, and raise no warning of any kind."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for arg in (np.float64(x), np.array([x]), np.array([0.0, x])):
            np.testing.assert_allclose(_erfcx(arg), erfcx(arg), rtol=1e-15, atol=1e-322)
            np.testing.assert_allclose(_libm(math.erf, arg), erf(arg), rtol=1e-15, atol=1e-322)
