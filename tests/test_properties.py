"""Randomized invariants with fixed seeds: added-mass tensor algebra,
characteristic transforms, stepper linearity/monotonicity, and the
entropy-preserving surface projection."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from bodywave.addedmass import (
    Ellipse,
    Ellipsoid,
    Starfish,
    added_mass_tensors,
    sample_surface,
)
from bodywave.materials import FluidField1D, FluidMaterial, Grid1D
from bodywave.rigidbody3d import project_surface_state
from bodywave.schemes import lax_wendroff_step, upwind_step


def _random_shape(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return Ellipse(rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0))
    if kind == 1:
        return Ellipsoid(rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0))
    return Starfish(int(rng.integers(3, 7)), rng.uniform(0.3, 0.8), rng.uniform(0.2, 0.8),
                    rng.uniform(0.0, np.pi / 3))


def _random_impedance(rng):
    w = rng.uniform(0.2, 2.0, 3)
    off = rng.uniform(0.5, 2.0)

    def z_f(pos):
        return off + np.abs(np.sin(pos @ w))

    return z_f


def _random_samples(rng, resolution=48):
    return sample_surface(_random_shape(rng), _random_impedance(rng), resolution)


# -- added-mass tensor algebra --------------------------------------------------


def test_composite_symmetric_and_cross_blocks_transposed():
    rng = np.random.default_rng(101)
    for _ in range(12):
        tens = added_mass_tensors(_random_samples(rng))
        scale = np.max(np.abs(tens.composite))
        assert np.max(np.abs(tens.composite - tens.composite.T)) <= 1e-10 * scale
        assert np.max(np.abs(tens.awv - tens.avw.T)) <= 1e-12 * scale
        assert np.array_equal(tens.composite[:3, :3], tens.avv)
        assert np.array_equal(tens.composite[3:, 3:], tens.aww)


def test_quadratic_form_equals_weighted_normal_velocity_integral():
    # u^T A_m u must equal the surface integral of z_f (n . (v + w x y))^2,
    # hence be nonnegative; the two routes share no assembly code.
    rng = np.random.default_rng(202)
    for _ in range(10):
        q = _random_samples(rng)
        tens = added_mass_tensors(q)
        scale = np.max(np.abs(tens.composite))
        for _ in range(5):
            v, w = rng.standard_normal(3), rng.standard_normal(3)
            quad = np.concatenate([v, w]) @ tens.composite @ np.concatenate([v, w])
            direct = sum(
                q.z_f[i] * q.weights[i]
                * float(q.normals[i] @ (v + np.cross(w, q.positions[i]))) ** 2
                for i in range(len(q))
            )
            bound = 1e-10 * scale * (v @ v + w @ w)
            assert abs(quad - direct) <= bound, f"{quad} vs {direct}"
            assert quad >= -bound
        assert np.min(np.linalg.eigvalsh(tens.composite)) >= -1e-10 * scale


def test_tensors_linear_in_impedance():
    rng = np.random.default_rng(303)
    for _ in range(6):
        shape = _random_shape(rng)
        z1, z2 = _random_impedance(rng), _random_impedance(rng)
        c1, c2 = rng.uniform(0.1, 3.0, 2)

        def z_mix(pos):
            return c1 * z1(pos) + c2 * z2(pos)

        t1 = added_mass_tensors(sample_surface(shape, z1, 48)).composite
        t2 = added_mass_tensors(sample_surface(shape, z2, 48)).composite
        mix = added_mass_tensors(sample_surface(shape, z_mix, 48)).composite
        ref = c1 * t1 + c2 * t2
        assert np.max(np.abs(mix - ref)) <= 1e-12 * np.max(np.abs(ref))


# -- characteristic transforms ---------------------------------------------------


@given(rho=st.floats(0.1, 10.0), c=st.floats(0.1, 10.0), seed=st.integers(0, 2**31))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_characteristic_round_trip(rho, c, seed):
    mat = FluidMaterial(rho, c)
    grid = Grid1D.uniform("right", 1.0, 1.0 / 24)
    rng = np.random.default_rng(seed)
    field = FluidField1D(grid, rng.standard_normal(grid.n_points),
                         rng.standard_normal(grid.n_points))
    a, b = field.to_characteristics(mat)
    back = FluidField1D.from_characteristics(grid, mat, a, b)
    scale = np.max(np.abs(field.v)) + np.max(np.abs(field.sigma)) + 1.0
    assert np.max(np.abs(back.v - field.v)) <= 1e-12 * scale
    assert np.max(np.abs(back.sigma - field.sigma)) <= 1e-12 * scale


@given(seed=st.integers(0, 2**31))
@settings(max_examples=40, derandomize=True, deadline=None)
def test_pure_radiation_is_bit_exact(seed):
    # A state with one characteristic identically zero must rebuild with
    # sigma = +-(z v) exactly, so outgoing waves never leak roundoff into
    # the incoming family.
    mat = FluidMaterial(1.3, 0.7)
    grid = Grid1D.uniform("left", 1.0, 1.0 / 16)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(grid.n_points)
    field = FluidField1D.from_characteristics(grid, mat, np.zeros(grid.n_points), b)
    assert np.array_equal(field.sigma, mat.z * field.v)
    a_back, _ = field.to_characteristics(mat)
    assert np.array_equal(a_back, np.zeros(grid.n_points))


# -- stepper linearity and monotonicity -------------------------------------------


def _random_field(rng, grid):
    return FluidField1D(grid, rng.standard_normal(grid.n_points),
                        rng.standard_normal(grid.n_points))


def test_steppers_are_linear():
    rng = np.random.default_rng(404)
    mat = FluidMaterial(1.0, np.sqrt(2.0))
    for side in ("left", "right"):
        grid = Grid1D.uniform(side, 1.0, 1.0 / 32)
        dt = 0.8 * grid.dx / mat.c
        for step in (upwind_step, lax_wendroff_step):
            u1, u2 = _random_field(rng, grid), _random_field(rng, grid)
            c1, c2 = rng.standard_normal(2)
            combo = FluidField1D(grid, c1 * u1.v + c2 * u2.v,
                                 c1 * u1.sigma + c2 * u2.sigma)
            s_combo = step(combo, mat, dt)
            s1, s2 = step(u1, mat, dt), step(u2, mat, dt)
            scale = np.max(np.abs(s_combo.sigma)) + np.max(np.abs(s_combo.v)) + 1.0
            assert np.max(np.abs(s_combo.v - (c1 * s1.v + c2 * s2.v))) <= 1e-12 * scale
            assert np.max(np.abs(s_combo.sigma - (c1 * s1.sigma + c2 * s2.sigma))) <= 1e-12 * scale


def test_upwind_monotone_per_characteristic_family():
    # With 0 <= lambda <= 1 the upwind update is a convex combination per
    # family: ordered data stays ordered and no new extrema appear.
    rng = np.random.default_rng(505)
    mat = FluidMaterial(1.0, 1.0)
    grid = Grid1D.uniform("right", 1.0, 1.0 / 40)
    for lam in (0.3, 0.8, 1.0):
        dt = lam * grid.dx / mat.c
        a_lo = rng.standard_normal(grid.n_points)
        b_lo = rng.standard_normal(grid.n_points)
        a_hi = a_lo + rng.uniform(0.0, 1.0, grid.n_points)
        b_hi = b_lo + rng.uniform(0.0, 1.0, grid.n_points)
        lo = FluidField1D.from_characteristics(grid, mat, a_lo, b_lo)
        hi = FluidField1D.from_characteristics(grid, mat, a_hi, b_hi)
        a_lo2, b_lo2 = upwind_step(lo, mat, dt).to_characteristics(mat)
        a_hi2, b_hi2 = upwind_step(hi, mat, dt).to_characteristics(mat)
        assert np.all(a_lo2 <= a_hi2 + 1e-13)
        assert np.all(b_lo2 <= b_hi2 + 1e-13)
        assert np.min(a_lo2) >= np.min(a_lo) - 1e-13
        assert np.max(a_lo2) <= np.max(a_lo) + 1e-13


# -- surface-state projection ------------------------------------------------------


@given(
    p=st.floats(0.1, 50.0),
    rho=st.floats(0.1, 20.0),
    z=st.floats(0.0, 10.0),
    gamma=st.floats(1.05, 3.0),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_projection_preserves_entropy_function(p, rho, z, gamma, seed):
    rng = np.random.default_rng(seed)
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    v_f = rng.standard_normal(3)
    v_b = rng.standard_normal(3)
    assume(p - z * float(n @ (v_f - v_b)) > 1e-6 * p)
    p_i, v_i, rho_i = project_surface_state(p, v_f, rho, z, n, v_b, gamma)
    s0 = p / rho**gamma
    s1 = p_i / rho_i**gamma
    assert abs(s1 - s0) <= 1e-12 * abs(s0), f"entropy drift {s1 - s0}"
    assert np.array_equal(v_i, v_b)
