"""Interior steppers checked against an explicit 2x2 matrix-form oracle.

The oracle applies  u' = u + dt (R L- Rinv D- u + R L+ Rinv D+ u)  (upwind)
and  u' = u + (dt/2) C D0 u + (dt^2/2) C^2 D+D- u  (Lax-Wendroff) cell by
cell in primitive variables, with C = [[0, 1/rho], [kappa, 0]].
"""

import copy

import numpy as np
import pytest

from bodywave.materials import FluidMaterial, Grid1D, FluidField1D
from bodywave.schemes import Characteristics, CflViolation, lax_wendroff_step, upwind_step

RNG = np.random.default_rng(20260814)


def _random_field(side, n=12, dx=0.05):
    g = Grid1D(side, n, dx)
    return FluidField1D(g, RNG.normal(size=n + 1), RNG.normal(size=n + 1))


def _padded(field, far_values):
    """State as (n+3, 2) array with a virtual far cell appended physically."""
    u = np.column_stack([field.v, field.sigma])
    if far_values is None:
        far = u[::field.grid.outward][-1]
    else:
        far = np.asarray(far_values, dtype=float)
    if field.grid.side == "left":
        return np.vstack([far, u]), 1
    return np.vstack([u, far]), 0


def _oracle_step(field, mat, dt, scheme, far_values=None):
    c, rho = mat.c, mat.rho
    C = np.array([[0.0, 1.0 / rho], [mat.kappa, 0.0]])
    R = c * np.array([[-1.0, 1.0], [mat.z, mat.z]])
    Rinv = (1.0 / (2.0 * c * mat.z)) * np.array([[-mat.z, 1.0], [mat.z, 1.0]])
    Lm = np.diag([-c, 0.0])
    Lp = np.diag([0.0, c])
    dx = field.grid.dx
    upad, shift = _padded(field, far_values)
    out = np.column_stack([field.v, field.sigma])
    interior = field.grid.interior
    for j in range(*interior.indices(field.grid.n_points)):
        u = upad[j + shift]
        uw = upad[j + shift - 1]
        ue = upad[j + shift + 1]
        if scheme == "upwind":
            out[j] = u + dt / dx * (R @ Lm @ Rinv @ (u - uw) + R @ Lp @ Rinv @ (ue - u))
        else:
            out[j] = (
                u
                + dt / (2 * dx) * (C @ (ue - uw))
                + dt**2 / (2 * dx**2) * (C @ C @ (ue - 2 * u + uw))
            )
    return out[:, 0], out[:, 1]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize(
    "stepper,name", [(upwind_step, "upwind"), (lax_wendroff_step, "lw")]
)
def test_matches_matrix_oracle(side, stepper, name):
    mat = FluidMaterial(1.3, 1.7)
    f = _random_field(side)
    dt = 0.8 * f.grid.dx / mat.c
    got = stepper(f, mat, dt)
    v_ref, s_ref = _oracle_step(f, mat, dt, "upwind" if name == "upwind" else "lw")
    interior = f.grid.interior
    assert np.allclose(got.v[interior], v_ref[interior], atol=1e-13, rtol=1e-13)
    assert np.allclose(got.sigma[interior], s_ref[interior], atol=1e-13, rtol=1e-13)
    # ghost passes through untouched
    g = f.grid.ghost_index
    assert got.v[g] == f.v[g] and got.sigma[g] == f.sigma[g]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("stepper", [upwind_step, lax_wendroff_step])
def test_unit_courant_is_exact_shift(side, stepper):
    mat = FluidMaterial(1.0, 2.0)
    f = _random_field(side, n=10)
    a, b = f.to_characteristics(mat)
    dt = f.grid.dx / mat.c  # lam = 1
    g2 = stepper(f, mat, dt)
    a2, b2 = g2.to_characteristics(mat)
    n = f.grid.n_cells
    if side == "left":
        # a moves +x (toward the ghost), b moves -x (toward the far end)
        assert np.allclose(a2[1:n], a[0 : n - 1], atol=1e-14)
        assert np.allclose(b2[0:n], b[1 : n + 1], atol=1e-14)
        assert np.isclose(a2[0], a[0], atol=1e-14)  # far virtual cell copies
    else:
        assert np.allclose(a2[1:], a[:-1], atol=1e-14)
        assert np.allclose(b2[1:n], b[2 : n + 1], atol=1e-14)
        assert np.isclose(b2[n], b[n], atol=1e-14)


@pytest.mark.parametrize("stepper", [upwind_step, lax_wendroff_step])
def test_cfl_violation_raised(stepper):
    mat = FluidMaterial(1.0, 1.0)
    f = _random_field("left")
    with pytest.raises(CflViolation):
        stepper(f, mat, 1.0000001 * f.grid.dx / mat.c)
    with pytest.raises(ValueError):
        stepper(f, mat, -0.1)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("stepper", [upwind_step, lax_wendroff_step])
def test_constant_state_is_fixed_point(side, stepper):
    mat = FluidMaterial(2.0, 0.7)
    g = Grid1D(side, 8, 0.1)
    f = FluidField1D(g, np.full(9, 1.25), np.full(9, -0.5))
    out = stepper(f, mat, 0.5 * g.dx / mat.c)
    assert np.allclose(out.v, 1.25, atol=1e-15)
    assert np.allclose(out.sigma, -0.5, atol=1e-15)


@pytest.mark.parametrize("side", ["left", "right"])
def test_far_values_override_extrapolation(side):
    mat = FluidMaterial(1.0, 1.0)
    f = _random_field(side)
    dt = 0.6 * f.grid.dx / mat.c
    default = upwind_step(f, mat, dt)
    forced = upwind_step(f, mat, dt, far_values=(3.0, -2.0))
    ref_v, ref_s = _oracle_step(f, mat, dt, "upwind", far_values=(3.0, -2.0))
    assert np.allclose(forced.v, np.where(np.arange(f.grid.n_points) == f.grid.ghost_index, f.v, ref_v))
    assert np.allclose(forced.sigma, np.where(np.arange(f.grid.n_points) == f.grid.ghost_index, f.sigma, ref_s))
    # only cells fed by the far stencil arm can differ from the default closure
    diff = np.abs(forced.v - default.v) + np.abs(forced.sigma - default.sigma)
    far = np.arange(f.grid.n_points)[:: f.grid.outward][-1]
    assert diff[far] > 0.0
    inner = [j for j in range(f.grid.n_points) if abs(j - far) > 0]
    assert np.allclose(np.asarray(diff)[inner], 0.0, atol=1e-15)


@pytest.mark.parametrize("stepper", [upwind_step, lax_wendroff_step])
def test_stacked_records_step_like_each_alone(stepper):
    """A stack of records with different steps, materials and far values
    steps each member bit-identically to the member stepped on its own."""
    mats = (FluidMaterial(1.0, 1.3), FluidMaterial(2.0, 0.7))

    def record(dt, far_values):
        return Characteristics((_random_field("left"), _random_field("right")), mats, dt, far_values)

    members = [record(0.01, ((1.0, 2.0), None)), record(0.02, (None, (3.0, -1.0))), record(0.035, ())]
    alone = [copy.copy(m) for m in members]
    for a in alone:
        a.x = a.x.copy()
    stack = Characteristics.stack(members)
    for _ in range(5):
        stepper(stack)
        for a in alone:
            stepper(a)
    for x, a in zip(stack.x, alone):
        assert np.array_equal(x, a.x)
