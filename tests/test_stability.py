"""Normal-mode predictions: closed forms vs determinants vs actual runs."""

import re

import numpy as np
import pytest
from hypothesis import given, assume, settings, strategies as st
from scipy.optimize import brentq

from bodywave.coupling import SingularBodyUpdate
from bodywave.harness import SWEEP_ROWS
from bodywave.materials import FluidMaterial
from bodywave.schemes import Characteristics
from bodywave.stability import (
    CONTOUR_CAP,
    INNER_RADIUS,
    OUTER_RADIUS,
    ContourFailure,
    GrowthConfig,
    StabilityQuery,
    _growth_run,
    _lw_family_vec,
    count_unstable_modes,
    empirical_growth_rate,
    growth_rates,
    max_stable_dt_traditional,
    roots_first_order_projection,
    roots_first_order_traditional,
    second_order_determinant,
)


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
    """det of the first-order system, d^2 g + 2 d e f, from its entries: the
    oracle whose zeros the closed-form first-order roots must be."""
    d, e, f, g = _first_order_entries(A, q)
    return d * (d * g + 2.0 * e * f)


def _det_scale(det_fn, q):
    """Typical determinant magnitude on a nearby ring, for relative zeros."""
    ring = 1.5 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
    return np.median(np.abs(det_fn(ring, q)))


@pytest.mark.parametrize("make, message", [
    (lambda: max_stable_dt_traditional(1.0, 0.0, 0.8), "need z > 0, courant in (0,1], mass >= 0"),
    (lambda: max_stable_dt_traditional(1.0, 1.0, 1.5), "need z > 0, courant in (0,1], mass >= 0"),
    (lambda: max_stable_dt_traditional(-1.0, 1.0, 0.8), "need z > 0, courant in (0,1], mass >= 0"),
    (lambda: GrowthConfig(FluidMaterial(1.0, 1.0), 1.0, 0.01, 0.8, 1.0, "third"),
     "scheme must be 'first' or 'second', got 'third'"),
], ids=["z-zero", "courant-above-one", "mass-negative", "scheme-unknown"])
def test_stability_inputs_are_refused(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


# -- closed-form first-order roots -------------------------------------------


def test_max_stable_dt_examples():
    assert max_stable_dt_traditional(1.0, 1.0, 1.0) == 3.0
    val = max_stable_dt_traditional(1e-6, np.sqrt(2.0), 0.9)
    assert abs(val * 1e6 - 2.436) < 5e-4, f"got {val}"


def test_traditional_roots_are_determinant_zeros():
    for lam, dt, m in [(0.5, 1e-3, 1e-2), (0.9, 5e-3, 1e-3), (1.0, 0.2, 1.0)]:
        q = StabilityQuery(lam, dt, m, np.sqrt(2.0), 0.0)
        rep = roots_first_order_traditional(q)
        scale = _det_scale(first_order_determinant, q)
        for root in rep.roots:
            res = abs(first_order_determinant(np.array(root), q)) / scale
            assert res < 1e-9, f"det residual {res} at root {root}"


def test_projection_root_is_determinant_zero():
    z = np.sqrt(2.0)
    for m, dt in [(1.0, 0.01), (1e-3, 0.02), (0.0, 0.1)]:
        q = StabilityQuery(0.8, dt, m, z, z)
        rep = roots_first_order_projection(q)
        (root,) = rep.roots
        assert root == m / (m + 2.0 * dt * z)
        scale = _det_scale(first_order_determinant, q)
        assert abs(first_order_determinant(np.array(root), q)) / scale < 1e-12


def test_boundary_step_gives_marginal_root():
    # At dt exactly at the bound the third root is -1; just past it, |A| > 1.
    m, z, lam = 1e-3, np.sqrt(2.0), 0.7
    bound = max_stable_dt_traditional(m, z, lam)
    rep = roots_first_order_traditional(StabilityQuery(lam, bound, m, z, 0.0))
    assert min(abs(r + 1.0) for r in rep.roots) < 1e-12
    assert abs(rep.max_modulus - 1.0) < 1e-12 and rep.stable
    rep2 = roots_first_order_traditional(StabilityQuery(lam, 1.001 * bound, m, z, 0.0))
    assert rep2.max_modulus > 1.0 + 1e-5 and not rep2.stable


def test_complex_pair_modulus_squared_is_one_minus_half_lambda():
    # Vieta: when the discriminant is negative, A2 A3 = |A|^2 = 1 - lam/2.
    m, z, lam = 1.0, 1.0, 0.8
    q = StabilityQuery(lam, 0.05 * max_stable_dt_traditional(m, z, lam), m, z, 0.0)
    rep = roots_first_order_traditional(q)
    pair = [r for r in rep.roots if abs(r.imag) > 0]
    assert len(pair) == 2
    assert abs(abs(pair[0]) ** 2 - (1.0 - 0.5 * lam)) < 1e-13
    assert abs(abs(pair[0]) - abs(pair[1])) < 1e-15


def test_real_regime_roots_stay_below_one():
    # Real roots of the traditional coupling never exceed 1 (instability
    # there is always through A < -1).
    for lam in (0.25, 0.5, 0.9, 1.0):
        for mult in (0.9, 1.0, 1.5, 3.0, 10.0):
            bound = max_stable_dt_traditional(1e-3, 2.0, lam)
            q = StabilityQuery(lam, mult * bound, 1e-3, 2.0, 0.0)
            rep = roots_first_order_traditional(q)
            real = [r for r in rep.roots if r.imag == 0.0]
            assert all(r.real < 1.0 for r in real)


def test_massless_traditional_reports_unbounded():
    q = StabilityQuery(0.9, 1e-3, 0.0, 1.0, 0.0)
    rep = roots_first_order_traditional(q)
    assert rep.unbounded and not rep.stable
    assert rep.max_modulus is None
    assert rep.roots == (complex(1.0 - 0.45),)


def test_projection_stable_for_random_queries():
    rng = np.random.default_rng(7)
    n = 10_000
    lam = rng.uniform(1e-3, 1.0, n)
    dt = 10.0 ** rng.uniform(-8.0, 2.0, n)
    mass = 10.0 ** rng.uniform(-12.0, 3.0, n)
    mass[::97] = 0.0
    z = 10.0 ** rng.uniform(-3.0, 3.0, n)
    for i in range(n):
        rep = roots_first_order_projection(
            StabilityQuery(lam[i], dt[i], mass[i], z[i], z[i])
        )
        assert rep.stable and rep.max_modulus < 1.0


@pytest.mark.parametrize("field,value", [
    ("courant", np.nan), ("dt", np.inf), ("dt", np.nan), ("mass", np.nan), ("mass", np.inf),
    ("z", np.inf), ("z", np.nan), ("alpha", np.nan), ("alpha", np.inf),
])
def test_query_rejects_non_finite_inputs(field, value):
    args = dict(courant=0.8, dt=1e-3, mass=1e-3, z=np.sqrt(2.0), alpha=0.0)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        StabilityQuery(**{**args, field: value})


# -- Lax-Wendroff spatial roots ----------------------------------------------


@given(
    nu=st.floats(-1.0, 1.0, allow_nan=False),
    re=st.floats(-5.0, 5.0),
    im=st.floats(-5.0, 5.0),
)
@settings(max_examples=200, deadline=None)
def test_lw_roots_satisfy_vieta(nu, re, im):
    A = complex(re, im)
    assume(abs(nu) > 1e-3 and abs(nu + 1.0) > 1e-3 and abs(A) > 1.0)
    r_in, y_out = _lw_family_vec(nu, A)
    r1, r2 = complex(r_in), 1.0 / complex(y_out)
    q2 = 0.5 * (nu + nu * nu)
    prod_ref = 0.5 * (nu * nu - nu) / q2
    sum_ref = (A - 1.0 + nu * nu) / q2
    scale = 1.0 + abs(prod_ref) + abs(sum_ref)
    assert abs(r1 * r2 - prod_ref) < 1e-10 * scale
    assert abs(r1 + r2 - sum_ref) < 1e-10 * scale


def test_lw_roots_at_unit_amplification_include_one():
    for nu in (-0.8, 0.8, 0.3):
        r_in, y_out = _lw_family_vec(nu, 1.0 + 0j)
        assert min(abs(r_in - 1.0), abs(1.0 / y_out - 1.0)) < 1e-9


def test_lw_roots_split_inside_outside_for_growing_modes():
    rng = np.random.default_rng(3)
    for nu in (-0.8, -0.4, 0.4, 0.8):
        A = 1.1 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 25))
        r_in, y_out = _lw_family_vec(nu, A)
        assert np.all(np.abs(r_in) < 1.0) and np.all(np.abs(y_out) < 1.0)


def test_lw_degenerate_cases():
    # At nu = -1 the quadratic loses its leading term: the inside root is
    # 1/A and the outside root escapes to infinity (reciprocal 0), which is
    # the limit of the general branch as nu -> -1.
    A = np.array([2.0, 1.5j, -3.0 + 1.0j, 1.1 * np.exp(2.0j)])
    r_in, y_out = _lw_family_vec(-1.0, A)
    assert np.array_equal(r_in, 1.0 / A) and np.array_equal(y_out, np.zeros(4))
    r_near, y_near = _lw_family_vec(-1.0 + 1e-9, A)
    assert np.max(np.abs(r_near - r_in)) < 1e-8 and np.max(np.abs(y_near)) < 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [1e-308, 1e-306, 1e-300])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_lw_roots_at_a_tiny_courant_number(lam, sign):
    """Near the smallest normal float the quadratic's outer coefficients are
    subnormal: both returned roots stay finite, within the unit circle and
    warn nothing, and each satisfies its quadratic (the outside root through
    its reciprocal y, q2 + q1 y + q0 y^2 = 0) to 1e-15 of the sum of its
    terms' moduli.  At lambda = 1e-308 the terms are subnormal, and one unit
    in their last place is 5e-16 of that sum; A is on the mode count's inner
    circle, where |q1| ~ 1."""
    nu = sign * lam
    A = INNER_RADIUS * np.exp(2j * np.pi * np.arange(64) / 64)
    r_in, y_out = _lw_family_vec(nu, A)
    assert np.all(np.isfinite(r_in)) and np.all(np.isfinite(y_out))
    assert np.all(np.abs(r_in) <= 1.0) and np.all(np.abs(y_out) <= 1.0)
    q2, q1, q0 = 0.5 * (nu + nu * nu), 1.0 - A - nu * nu, 0.5 * (nu * nu - nu)
    for lead, mid, end, x in ((q2, q1, q0, r_in), (q0, q1, q2, y_out)):
        terms = (lead * x * x, mid * x, end + 0.0 * x)
        assert np.max(np.abs(sum(terms)) / sum(map(np.abs, terms))) <= 1e-15


# -- second-order eigen system -----------------------------------------------


def test_coupling_root_zeroes_body_row_coefficient():
    # The trapezoidal interface recursion root A = (m - dt z)/(m + dt z)
    # annihilates the body-row velocity coefficient of the projected system.
    z = np.sqrt(2.0)
    for m, dt in [(1.0, 0.01), (1e-2, 0.03), (1e-6, 0.1)]:
        q = StabilityQuery(0.9, dt, m, z, z)
        a_star = (m - dt * z) / (m + dt * z)
        entry = second_order_system_matrix(np.array(a_star + 0j), q)[4, 4]
        assert abs(entry) < 1e-12 * (1.0 + 2.0 * m / (dt * z))


def test_second_order_determinant_finite_at_unit_courant():
    # lambda = 1 degenerates the rightward-family quadratic; the outside
    # root escapes to infinity and its reciprocal must enter as 0.
    q = StabilityQuery(1.0, 0.01, 1e-3, np.sqrt(2.0), np.sqrt(2.0))
    ring = 1.3 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False))
    vals = second_order_determinant(ring, q)
    assert np.all(np.isfinite(vals))


def test_count_unstable_first_order_positive_control():
    # The winding count must flag the closed-form instability: one real
    # root below -1 at twice the bound, none at half the bound.
    m, z, lam = 1e-3, np.sqrt(2.0), 0.5
    bound = max_stable_dt_traditional(m, z, lam)
    q_bad = StabilityQuery(lam, 2.0 * bound, m, z, 0.0)
    q_ok = StabilityQuery(lam, 0.5 * bound, m, z, 0.0)
    assert count_unstable_modes(first_order_determinant, q_bad) == 1
    assert count_unstable_modes(first_order_determinant, q_ok) == 0


def test_count_unstable_second_order_projection_is_zero():
    z = np.sqrt(2.0)
    for lam in (0.5, 0.9):
        for m, dt in [(1e-3, 1e-4), (1.0, 0.05), (1e-6, 0.01), (0.0, 0.02)]:
            q = StabilityQuery(lam, dt, m, z, z)
            assert count_unstable_modes(second_order_determinant, q) == 0, (
                f"spurious growing mode at lam={lam}, m={m}, dt={dt}"
            )


def test_count_unstable_second_order_traditional_light_body():
    # The traditional coupling at second order loses stability below the
    # first-order bound: a pair of growing modes is already present at half
    # that time step (complex pair there, two real roots further up).
    m, z, lam = 1e-3, np.sqrt(2.0), 0.8
    bound = max_stable_dt_traditional(m, z, lam)
    for mult in (0.5, 2.0, 5.0):
        q = StabilityQuery(lam, mult * bound, m, z, 0.0)
        n = count_unstable_modes(second_order_determinant, q)
        assert n == 2, f"mult={mult}: count={n}"


# -- closed-form determinants and the adaptive contour -----------------------


def _dense(entries: dict, A, n: int) -> np.ndarray:
    out = np.zeros(np.shape(A) + (n, n), dtype=complex)
    for (i, j), value in entries.items():
        out[..., i, j] = value
    return out


def first_order_system_matrix(A, q: StabilityQuery) -> np.ndarray:
    """3x3 interface-mode system of the first-order scheme, vectorized over
    complex A; unknowns (b_L0, a_R0, v/c).  Singular exactly at the
    amplification factors."""
    d, e, f, g = _first_order_entries(A, q)
    return _dense({(0, 0): d, (0, 2): -e, (1, 1): d, (1, 2): e,
                   (2, 0): f, (2, 1): -f, (2, 2): g}, A, 3)


def _second_order_entries(A, q: StabilityQuery) -> dict:
    """Nonzero entries {(row, col): value} of the 5x5 second-order interface-mode
    system at |A| > 1 in the unknowns (a_L0, b_L0, a_R0, b_R0, v/c), each
    characteristic family from its own spatial-root call.

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


def second_order_system_matrix(A, q: StabilityQuery) -> np.ndarray:
    """5x5 interface-mode system of the second-order scheme, vectorized over
    complex A with |A| > 1; unknowns (a_L0, b_L0, a_R0, b_R0, v/c)."""
    return _dense(_second_order_entries(A, q), A, 5)


def _random_exterior(n, seed):
    """n random points with |A| - 1 log-uniform in [1e-3, 1e4]."""
    rng = np.random.default_rng(seed)
    return (1.0 + 10.0 ** rng.uniform(-3.0, 4.0, n)) * np.exp(2j * np.pi * rng.random(n))


@pytest.mark.parametrize("lam,w", [(1.0, 1.0), (1.0, 0.0), (1.0, 0.4), (0.8, 0.0),
                                   (0.37, 0.6), (0.9, 1.7)])
def test_second_order_determinant_equals_lu(lam, w):
    for z, m, dt in [(0.7, 3e-3, 0.02), (np.sqrt(2.0), 1e-6, 1e-5), (25.0, 2.0, 0.3)]:
        q = StabilityQuery(lam, dt, m, z, w * z)
        A = _random_exterior(2000, seed=12)
        lu = np.linalg.det(second_order_system_matrix(A, q))
        rel = np.abs(second_order_determinant(A, q) - lu) / np.abs(lu)
        assert np.max(rel) <= 1e-13, (z, m, dt, np.max(rel))


def _fluid_block_det(A, q: StabilityQuery):
    """det_P of the oracle's rows 0, 2 and columns 0, 1: the left fluid block,
    a factor of second_order_determinant."""
    e = _second_order_entries(A, q)
    return e[0, 0] * e[2, 1] - e[0, 1] * e[2, 0]


def test_fluid_block_zeros_do_not_depend_on_the_body():
    """det_P involves lambda and alpha/z alone, so its zeros are modes of the
    fluid and the weight that no body mass or step can move: none with
    |A| > INNER_RADIUS up to alpha/z = 1, at 50 lambda in [0.02, 1], and one
    at alpha/z = 2, lambda = 0.8 (one appears above lambda ~ 0.62 there),
    real and negative, which growth runs at masses 1e-6 and 1e3 measure."""
    for w in (0.0, 0.5, 1.0):
        for lam in np.linspace(0.02, 1.0, 50):
            assert count_unstable_modes(_fluid_block_det, StabilityQuery(lam, 0.3, 1.0, 1.0, w)) == 0, (w, lam)
    for dt, m in [(0.3, 1.0), (1e-6, 1e6)]:
        assert count_unstable_modes(_fluid_block_det, StabilityQuery(0.8, dt, m, 1.0, 2.0)) == 1
    q = StabilityQuery(0.8, 1.0, 1.0, 1.0, 2.0)
    root = brentq(lambda x: _fluid_block_det(np.complex128(x), q).real, -1.9, -1.6, xtol=1e-14)
    mat = FluidMaterial(1.0, np.sqrt(2.0))
    rates = growth_rates([GrowthConfig(mat, m, max_stable_dt_traditional(m, mat.z, 0.8), 0.8, 2.0 * mat.z, "second")
                          for m in (1e-6, 1e3)])
    assert rates == pytest.approx([-root] * 2, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lam,w", [(1.0, 1.0), (0.5, 0.0), (0.9, 0.3), (0.2, 1.6)])
def test_first_order_determinant_equals_lu(lam, w):
    for z, m, dt in [(0.7, 3e-3, 0.02), (np.sqrt(2.0), 0.0, 1e-5), (25.0, 2.0, 0.3)]:
        q = StabilityQuery(lam, dt, m, z, w * z)
        A = _random_exterior(2000, seed=13)
        lu = np.linalg.det(first_order_system_matrix(A, q))
        rel = np.abs(first_order_determinant(A, q) - lu) / np.abs(lu)
        assert np.max(rel) <= 1e-13, (z, m, dt, np.max(rel))


def test_count_matches_zeros_of_polynomials():
    # Zeros inside the inner circle, in the annulus and beyond the outer
    # circle; only the annulus ones count.
    q = StabilityQuery(0.8, 0.01, 1e-3, 1.0, 1.0)
    zeros = [0.3, 1.005j, -1.02, 2.0 + 2.0j, 900.0j, -2e4]

    def det_fn(A, q):
        return np.prod([A - r for r in zeros], axis=0)

    assert count_unstable_modes(det_fn, q) == 3


@pytest.mark.parametrize("value", [0.0, np.nan])
def test_contour_refuses_a_vanishing_determinant(value):
    # A = 1.01 exactly is the first sample of the inner circle.
    q = StabilityQuery(0.8, 0.01, 1e-3, 1.0, 1.0)
    with pytest.raises(ContourFailure, match="vanished"):
        count_unstable_modes(lambda A, q: (A - INNER_RADIUS) * (1.0 + value), q)


def test_contour_unresolved_phase_jump_is_undersampled():
    # A sign jump at arg A = 0 and pi never resolves: doubling must stop at
    # the point cap of both circles together and say so, not loop or return
    # a count.
    q = StabilityQuery(0.8, 0.01, 1e-3, 1.0, 1.0)
    seen = []

    def det_fn(A, q):
        seen.append(A.size)
        return np.where(A.imag >= 0.0, 1.0, -1.0) + 0j

    with pytest.raises(ContourFailure, match="undersampled"):
        count_unstable_modes(det_fn, q)
    assert sum(seen) <= CONTOUR_CAP
    assert issubclass(ContourFailure, ArithmeticError)


def _dense_count(q, samples=16384):
    """Reference count: LU determinants at a fixed number of points per
    circle, or None where even that grid leaves a phase step near pi."""
    ring = np.exp(2j * np.pi * np.arange(samples) / samples)
    windings = []
    for radius in (INNER_RADIUS, OUTER_RADIUS):
        vals = np.linalg.det(second_order_system_matrix(radius * ring, q))
        assert np.min(np.abs(vals)) > 0.0
        turns = np.angle(np.roll(vals, -1) / vals)
        if np.max(np.abs(turns)) > 2.5:
            return None
        windings.append(round(turns.sum() / (2.0 * np.pi)))
    return windings[1] - windings[0]


@given(
    lam=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
    log_z=st.floats(-2.0, 2.0),
    log_m=st.floats(-6.0, 1.0),
    factor=st.one_of(st.floats(0.99, 1.01), st.floats(0.01, 30.0)),
    w=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 2.0)),
)
@settings(max_examples=30, deadline=None)
def test_adaptive_count_equals_dense_count(lam, log_z, log_m, factor, w):
    """(lambda, z, m, dt / traditional bound, alpha / z) queries, some within
    1 % of the bound: the count, which doubles its equally spaced points per
    circle from 64 until resolved, is the dense 16,384-point count."""
    z, m = 10.0 ** log_z, 10.0 ** log_m
    q = StabilityQuery(lam, factor * max_stable_dt_traditional(m, z, lam), m, z, w * z)
    dense = _dense_count(q)
    assume(dense is not None)  # the reference grid itself cannot decide
    assert count_unstable_modes(second_order_determinant, q) == dense


def _real_axis_roots(det_fn, q, lo=1.005, hi=80.0, samples=8000):
    """All real determinant zeros with lo < |A| < hi (both half-axes)."""
    roots = []
    for sgn in (-1.0, 1.0):
        xs = sgn * np.linspace(lo, hi, samples)
        vals = np.array([det_fn(np.complex128(x), q).real for x in xs])
        for i in np.where(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]:
            roots.append(brentq(
                lambda x: det_fn(np.complex128(x), q).real, xs[i], xs[i + 1],
                xtol=1e-13,
            ))
    return roots


# -- empirical growth vs prediction ------------------------------------------


def test_traditional_bound_predicts_measured_growth():
    # Sweep (lambda, dt/bound) over the grid; every point is at least 10%
    # away from the stability boundary, so prediction and measurement must
    # agree on the verdict.
    mat = FluidMaterial(rho=1.0, c=np.sqrt(2.0))
    m = 1e-3
    for lam in (0.25, 0.5, 0.9, 1.0):
        bound = max_stable_dt_traditional(m, mat.z, lam)
        for mult in (0.5, 0.9, 1.1, 2.0):
            dt = mult * bound
            q = StabilityQuery(lam, dt, m, mat.z, 0.0)
            predicted = roots_first_order_traditional(q)
            cfg = GrowthConfig(mat, m, dt, lam, 0.0, "first", n_cells=60, seed=11)
            rate = empirical_growth_rate(cfg, n_steps=400)
            if predicted.stable:
                assert rate <= 1.0 + 1e-6, f"lam={lam} mult={mult}: rate={rate}"
            else:
                assert rate > 1.05, f"lam={lam} mult={mult}: rate={rate}"
                assert abs(rate - predicted.max_modulus) < 0.05 * predicted.max_modulus


def test_projection_measured_stable_both_schemes():
    mat = FluidMaterial(rho=1.0, c=np.sqrt(2.0))
    for scheme in ("first", "second"):
        cfg = GrowthConfig(mat, 1e-3, 5e-3, 0.9, mat.z, scheme, n_cells=60, seed=4)
        rate = empirical_growth_rate(cfg, n_steps=300)
        assert rate <= 1.0 + 1e-6, f"{scheme}: rate={rate}"


def test_second_order_traditional_root_matches_measured_growth():
    # Dual route: the dominant (negative real) determinant zero and the
    # measured per-step rate of an actual run must agree, pinning the sign
    # structure of the body row away from alpha = z.
    mat = FluidMaterial(rho=1.0, c=np.sqrt(2.0))
    m, lam = 1e-3, 0.8
    bound = max_stable_dt_traditional(m, mat.z, lam)
    for mult in (2.0, 5.0):
        dt = mult * bound
        q = StabilityQuery(lam, dt, m, mat.z, 0.0)
        roots = _real_axis_roots(second_order_determinant, q)
        assert roots, f"mult={mult}: no real roots found"
        dominant = max(abs(r) for r in roots)
        cfg = GrowthConfig(mat, m, dt, lam, 0.0, "second", n_cells=100, seed=0)
        rate = empirical_growth_rate(cfg, n_steps=600)
        assert abs(dominant - rate) < 1e-6 * rate, (
            f"mult={mult}: root modulus {dominant} vs measured {rate}"
        )


def test_second_order_traditional_grows_below_first_order_bound():
    # At half the first-order bound the first-order closed form is still
    # comfortably stable, yet the second-order run grows through a complex
    # pair that the winding count sees.
    mat = FluidMaterial(rho=1.0, c=np.sqrt(2.0))
    m, lam = 1e-3, 0.8
    dt = 0.5 * max_stable_dt_traditional(m, mat.z, lam)
    q = StabilityQuery(lam, dt, m, mat.z, 0.0)
    assert roots_first_order_traditional(q).stable
    assert count_unstable_modes(second_order_determinant, q) == 2
    cfg = GrowthConfig(mat, m, dt, lam, 0.0, "second", n_cells=100, seed=0)
    rate = empirical_growth_rate(cfg, n_steps=600)
    assert 1.7 < rate < 1.9, f"rate={rate}"


@pytest.mark.parametrize("scheme,coupling,factor", [
    ("first", "traditional", 0.5),     # stable
    ("first", "traditional", 2.0),     # unstable
    ("second", "projection", 2.0),     # stable
    ("second", "traditional", 0.5),    # unstable
])
def test_growth_rate_is_scale_free(scheme, coupling, factor):
    """The discrete problem depends only on lambda, alpha/z and m/(z dt), so
    (m, dt) -> (k m, k dt) leaves the measured rate unchanged: the sweep's
    mass sets the units, not the problem."""
    mat, lam, m = FluidMaterial(1.0, np.sqrt(2.0)), 0.8, 1e-3
    alpha = mat.z if coupling == "projection" else 0.0
    dt = factor * max_stable_dt_traditional(m, mat.z, lam)
    base = empirical_growth_rate(GrowthConfig(mat, m, dt, lam, alpha, scheme, seed=5))
    for k in (2.0 ** -10, 3.0, 1e3):
        scaled = empirical_growth_rate(GrowthConfig(mat, k * m, k * dt, lam, alpha, scheme, seed=5))
        assert scaled == pytest.approx(base, rel=1e-12, abs=0.0), k


# -- stacked growth runs -------------------------------------------------------


# growth_rates couples through a probed matrix and reads two tail norms, where
# _single_rate calls couple() and averages per-step logs, so the two round
# differently.  The largest relative gap measured was 5.4e-15 over 560 random
# configs (40 steps), 9.5e-16 over 9 sweeps (600 steps) and 6.1e-15 at 500x
# the traditional bound.
RATE_RTOL = 5e-14


def _single_rate(config: GrowthConfig, n_steps: int):
    """The growth measurement of one run stepped on its own, unstacked, through
    scalar couple() calls and a division by the norm after every step: the
    independent reference that growth_rates must match to RATE_RTOL."""
    try:
        run = _growth_run(config)
    except SingularBodyUpdate:
        return None
    interior, c = run.chars.x[:, :, 1:-1], run.chars.mats[0].c  # the run's own c, in its own variables
    logs = []
    for _ in range(n_steps):
        run.step()
        peak = (np.abs(interior[:, 0]) + np.abs(interior[:, 1])).max()
        norm = max(c * float(peak), abs(run.v_body))
        if norm == 0.0:
            return 0.0
        logs.append(np.log(norm))
        run.chars.x[...] /= norm
        run.v_body /= norm
        run.flux /= norm
    return float(np.exp(np.mean(np.array(logs)[-max(1, n_steps // 4):])))


def _sweep_configs(mass: float, seed: int = 5, mat=FluidMaterial(1.0, np.sqrt(2.0))) -> list[GrowthConfig]:
    """The growth runs of run_stability_sweep at its CFL and `mat`, by default its default."""
    lam = 0.8
    bound = max_stable_dt_traditional(mass, mat.z, lam)
    return [GrowthConfig(mat, 0.0 if massless else mass, factor * bound, lam,
                         mat.z if coupling == "projection" else 0.0, scheme, seed=seed)
            for scheme, coupling, massless, factor in SWEEP_ROWS]


_MEMBER = st.tuples(
    st.sampled_from(["first", "second"]),
    st.floats(0.05, 1.0),                            # lambda
    st.floats(0.1, 10.0),                            # dt / traditional bound
    st.sampled_from([0.0, 1e-6, 1e-3, 0.37, 1.0]),   # body mass
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 2.0)),  # alpha / z
    st.sampled_from([12, 20]),                       # cells per side
    st.integers(0, 3),                               # seed
)


def _assert_rates_match(rates, singles):
    """Each rate is None or 0.0 exactly where its single run's is, and otherwise
    within RATE_RTOL of it."""
    for r, s in zip(rates, singles, strict=True):
        assert r == (s if s is None or s == 0.0 else pytest.approx(s, rel=RATE_RTOL, abs=0.0)), (r, s)


@settings(max_examples=40, deadline=None)
@given(st.lists(_MEMBER, min_size=1, max_size=5))
def test_stacked_growth_rates_equal_single_runs(members):
    """Runs of every order, shape, lambda, dt, m and alpha, stacked up to six
    at a time (the first one twice), measure exactly what each measures in a
    stack of its own, and what its single run measures to RATE_RTOL."""
    mat, n_steps = FluidMaterial(1.0, np.sqrt(2.0)), 40
    configs = []
    for scheme, lam, factor, m, w, n, seed in members + members[:1]:
        dt = factor * max_stable_dt_traditional(m or 1e-3, mat.z, lam)
        configs.append(GrowthConfig(mat, m, dt, lam, w * mat.z, scheme, n_cells=n, seed=seed))
    rates = growth_rates(configs, n_steps)
    assert rates == [growth_rates([c], n_steps)[0] for c in configs]
    assert rates[-1] == rates[0]
    _assert_rates_match(rates, [_single_rate(c, n_steps) for c in configs])


def test_alternating_orders_and_sizes_map_back_to_their_configs():
    """Configs that alternate first, second, first, second order over two
    n_cells stack by n_cells, first order first, and each rate comes back to
    its own config, equal bit for bit to the rate of its run alone, and to
    its single run's to RATE_RTOL."""
    mat, lam = FluidMaterial(1.0, np.sqrt(2.0)), 0.8
    dt = max_stable_dt_traditional(1e-3, mat.z, lam)
    configs = [GrowthConfig(mat, 1e-3, f * dt, lam, a, scheme, n_cells=n, seed=seed)
               for seed, (scheme, f, a, n) in enumerate(
                   [("first", 1.5, 0.0, 12), ("second", 0.5, 0.0, 20), ("first", 2.0, mat.z, 20),
                    ("second", 2.0, 0.0, 12), ("first", 0.5, 0.0, 20), ("second", 1.5, mat.z, 12)])]
    rates = growth_rates(configs, 40)
    assert rates == [growth_rates([c], 40)[0] for c in configs]
    assert len(set(rates)) == len(rates)  # distinct, so a rate mapped to the wrong config shows
    _assert_rates_match(rates, [_single_rate(c, 40) for c in configs])


@pytest.mark.parametrize("mass", [1e-3, 1.0, 1e-6])
def test_sweep_growth_rates_equal_single_runs(mass):
    configs = _sweep_configs(mass)
    rates = growth_rates(configs)
    assert rates == [growth_rates([c])[0] for c in configs]
    _assert_rates_match(rates, [_single_rate(c, 600) for c in configs])
    assert [r is None for r in rates] == [c.mass == 0.0 and c.alpha == 0.0 for c in configs]


class _Zeros:
    """A generator whose normal draws are all zero: a run from it stays at rest."""

    def standard_normal(self, size=None):
        return 0.0 if size is None else np.zeros(size)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_refused_and_resting_members_leave_the_stack_alone(monkeypatch):
    """A refused member is never stacked and reads None; a member whose norm
    reaches 0 reads 0.0; every other member reads what it reads alone, and
    what its single run reads to RATE_RTOL.  The five runnable members, of
    both orders, share one stack."""
    real_rng, real_stack, stacked = np.random.default_rng, Characteristics.stack, []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _Zeros() if seed == 99 else real_rng(seed))
    monkeypatch.setattr(Characteristics, "stack", classmethod(
        lambda cls, members: stacked.append(len(members)) or real_stack(members)))
    mat, lam = FluidMaterial(1.0, np.sqrt(2.0)), 0.8
    dt = max_stable_dt_traditional(1e-3, mat.z, lam)
    configs = [GrowthConfig(mat, m, f * dt, lam, a, scheme, n_cells=20, seed=seed)
               for scheme, m, f, a, seed in (
                   ("first", 1e-3, 1.1, 0.0, 1), ("first", 0.0, 2.0, 0.0, 2),
                   ("first", 1e-3, 0.5, 0.0, 99), ("second", 1e-3, 0.5, 0.0, 3),
                   ("first", 1e-3, 2.0, mat.z, 4), ("second", 1e-3, 2.0, mat.z, 99))]
    rates = growth_rates(configs, 40)
    assert stacked == [5]
    assert rates[1] is None and rates[2] == 0.0 and rates[5] == 0.0
    for i in (0, 3, 4):
        assert rates[i] == growth_rates([configs[i]], 40)[0] and rates[i] > 0.0, i
        assert rates[i] == pytest.approx(_single_rate(configs[i], 40), rel=RATE_RTOL, abs=0.0), i


@pytest.mark.parametrize("scheme", ["first", "second"])
def test_fast_growth_is_measured_without_overflow(scheme):
    """At 500x the traditional bound a run grows by about 1.6e3 (first order) or
    2.4e3 (second) per step, past the largest float within about 100 steps
    unscaled; the power-of-two rescaling measures it as the single run does,
    and warns nothing (a RuntimeWarning fails the suite)."""
    mat, lam, m = FluidMaterial(1.0, np.sqrt(2.0)), 0.8, 1e-3
    config = GrowthConfig(mat, m, 500.0 * max_stable_dt_traditional(m, mat.z, lam), lam, 0.0, scheme,
                          n_cells=20, seed=1)
    rate = growth_rates([config])[0]
    assert rate > 1e3
    assert rate == pytest.approx(_single_rate(config, 600), rel=RATE_RTOL, abs=0.0)


def test_a_far_speed_of_sound_does_not_rescale_every_step(monkeypatch):
    """Every growth run is posed at unit c, so a member whose c is far from 1
    stores its numbers at the scale of any other and leaves the rescale
    window no more often: on the m = 1 sweep configs at c = 1e-200 and
    c = 1e100, growth_rates makes at most 2x the np.frexp calls (one per
    rescale) of the default material, where a stack whose entries sat about
    1/c from the norm the rescale aims at would rescale on every step (about
    1,200 calls)."""
    calls, frexp = [], np.frexp
    monkeypatch.setattr(np, "frexp", lambda *args: calls.append(1) or frexp(*args))
    counts = []
    for mat in (FluidMaterial(1.0, np.sqrt(2.0)), FluidMaterial(1.7e308, 1e-200), FluidMaterial(1e-100, 1e100)):
        calls.clear()
        growth_rates(_sweep_configs(1.0, mat=mat))
        counts.append(len(calls))
    assert max(counts[1:]) <= 2 * counts[0], counts


def test_a_heavy_fast_body_reads_its_twins_rate():
    """At z = 1e280 and m/(z dt) = 1e-50 a unit cell's response z v_body,
    about 1e330, would leave the float range in physical units; posed in its
    own variables, the run reads the rate of its twin at z = 1 (the same
    lambda, alpha/z and m/(z dt)), about 8e49 per step, and warns nothing (a
    RuntimeWarning fails the suite)."""
    rate = empirical_growth_rate(GrowthConfig(FluidMaterial(1e280, 1.0), 1e227, 1e-3, 0.8, 0.0, "first"))
    twin = empirical_growth_rate(GrowthConfig(FluidMaterial(1.0, 1.0), 1e-53, 1e-3, 0.8, 0.0, "first"))
    assert twin == pytest.approx(8e49, rel=1e-12)
    assert rate == pytest.approx(twin, rel=1e-12, abs=0.0)


def test_an_overflowed_run_reads_nan_not_a_stable_rate():
    """A massless body at alpha/z = 1e300 overflows in its own variables: C's
    entries grow with alpha/z, C y leaves the float range and the norm turns
    NaN.  The rate reads NaN, not the 1.0 (a stable verdict) that a NaN
    mantissa logged as 1 would give."""
    config = GrowthConfig(FluidMaterial(1.0, 1.0), 0.0, 1e-3, 0.8, 1e300, "first")
    with pytest.warns(RuntimeWarning):
        rate = empirical_growth_rate(config)
    assert np.isnan(rate)


@pytest.mark.parametrize("scheme", ["first", "second"])
def test_an_overflowed_member_leaves_the_member_before_it_alone(scheme):
    """Stacked before the overflowing run above, at the same order, a stable
    run reads bit for bit what it reads alone: the overflowed member's
    non-finite ghosts never enter the columns of another member."""
    mat = FluidMaterial(1.0, 1.0)
    stable = GrowthConfig(mat, 1.0, 1e-3, 0.8, 1.0, scheme)
    with pytest.warns(RuntimeWarning):
        rates = growth_rates([stable, GrowthConfig(mat, 0.0, 1e-3, 0.8, 1e300, scheme)])
    assert np.isnan(rates[1])
    assert rates[0] == growth_rates([stable])[0] and np.isfinite(rates[0])


@pytest.mark.parametrize("config,expected", [
    # mu = m/(z dt) = 1e597 saturates at the largest float: an immovable body,
    # at the rate measured in physical units (an infinite mu would read NaN)
    (GrowthConfig(FluidMaterial(1e-290, 1e-4), 1e300, 1e-3, 0.8, 0.0, "second"), 0.9909956574433861),
    # z dt = 1e-450 underflows to 0: the same immovable body as at dt = 1e-150
    (GrowthConfig(FluidMaterial(1.0, 1e-150), 1e300, 1e-300, 0.8, 1e-150, "second"),
     GrowthConfig(FluidMaterial(1.0, 1e-150), 1e300, 1e-150, 0.8, 1e-150, "second")),
    # mu = 1e-330, below the subnormal floats, is a massless body
    (GrowthConfig(FluidMaterial(1.0, 1e150), 1e-300, 1e-120, 0.8, 1e150, "second"),
     GrowthConfig(FluidMaterial(1.0, 1e150), 0.0, 1e-120, 0.8, 1e150, "second")),
    # and a massless body stays one where z dt = 1e-330 underflows to 0
    (GrowthConfig(FluidMaterial(1e-293, 1e-7), 0.0, 1e-30, 0.8, 1e-300, "second"),
     GrowthConfig(FluidMaterial(1e-293, 1e-7), 0.0, 1.0, 0.8, 1e-300, "second")),
], ids=["mu-past-the-largest-float", "z-dt-underflows", "mu-below-the-subnormals", "massless-z-dt-underflows"])
def test_a_body_mass_past_the_float_range_is_measured(config, expected):
    """A growth run's body mass mu = m/(z dt) is computed without an exception
    or a warning at both ends of the float range; each run reads the rate
    expected of it over 40 steps, where the fluid still sets the norm."""
    if isinstance(expected, GrowthConfig):
        expected = empirical_growth_rate(expected, 40)
    assert empirical_growth_rate(config, 40) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_growth_rates_need_a_step():
    mat = FluidMaterial(1.0, np.sqrt(2.0))
    cfg = GrowthConfig(mat, 1e-3, 1e-3, 0.8, mat.z, "first")
    for n_steps in (0, -1):
        with pytest.raises(ValueError, match="n_steps"):
            growth_rates([cfg], n_steps)
        with pytest.raises(ValueError, match="n_steps"):
            empirical_growth_rate(cfg, n_steps=n_steps)


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
def test_growth_config_rejects_bad_dt(dt):
    """The refusal names dt, not the grid spacing derived from it."""
    mat = FluidMaterial(1.0, np.sqrt(2.0))
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        GrowthConfig(mat, 1e-3, dt, 0.8, mat.z, "first")


def test_growth_config_rejects_negative_mass():
    mat = FluidMaterial(1.0, np.sqrt(2.0))
    with pytest.raises(ValueError, match="mass must be >= 0"):
        GrowthConfig(mat, -1e-3, 1e-3, 0.8, mat.z, "first")


@pytest.mark.parametrize("mass", [np.nan, np.inf])
def test_growth_config_rejects_non_finite_mass(mass):
    """A NaN or infinite mass is refused up front, not measured as a NaN rate."""
    mat = FluidMaterial(1.0, np.sqrt(2.0))
    with pytest.raises(ValueError, match="mass must be >= 0 and finite"):
        empirical_growth_rate(GrowthConfig(mat, mass, 1e-3, 0.8, 0.0, "first"), 50)
