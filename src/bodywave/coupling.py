"""Partitioned coupling of the two half-line fluids to a rigid body.

The body at the origin sees interface stresses built from the fluid cells
next to it; the parameter alpha interpolates between the traditional
coupling (alpha = 0: raw fluid stress) and the characteristic projection
(alpha = z: the incoming characteristic is replaced using the body
velocity).  With s = Grid1D.outward (+1 right, -1 left) and edge values
(v_e, sigma_e) taken from the edge extrapolant w1 u_1 + w2 u_2 of the
interior cells counted from the body:

    sigma_I = sigma_e + s alpha (v_e - v_body)

The paper's two algorithms are one partitioned step at two orders.  The
order selects the interior stepper and a scheme record (SCHEMES):

    order  interior      edge (w1, w2)  body/position theta   ghost
    1      upwind        (1, 0)         1 (backward Euler)    v_g = v_b
    2      Lax-Wendroff  (3/2, -1/2)    1/2 (trapezoidal)     v_g = 2 v_b - v_1

The body velocity update is implicit in the interface stresses, which keeps
the partitioned loop stable for any mass ratio; the algebra reduces to a
scalar solve per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .materials import FluidField1D, FluidMaterial
from .schemes import lax_wendroff_step, upwind_step


class SingularBodyUpdate(ValueError):
    """Implicit body solve has a non-positive denominator (e.g. massless
    body with alpha = 0 on both sides)."""


class Scheme(NamedTuple):
    """Order-dependent parts of the partitioned step."""

    edge: tuple[float, float]  # weights (w1, w2) of the edge extrapolant
    theta: float               # body and position update: 1 backward Euler, 1/2 trapezoidal
    reflect: float             # ghost = (1 + r) interface value - r cell 1


SCHEMES = {1: Scheme((1.0, 0.0), 1.0, 0.0), 2: Scheme((1.5, -0.5), 0.5, 1.0)}


def _edge_flux(field: FluidField1D, alpha: float, order: int) -> float:
    """Edge extrapolant of the per-cell combination s sigma + alpha v, i.e.
    the side's contribution to the net force on the body before the
    -alpha v_body part.  Combining per cell first makes pure outgoing
    radiation cancel bit-exactly, so quiescent decay stays geometric to the
    last ulp."""
    g, s = field.grid.ghost_index, field.grid.outward
    v, sigma = field.v, field.sigma
    phi = s * sigma.item(g + s) + alpha * v.item(g + s)
    w1, w2 = SCHEMES[order].edge
    if w2:
        phi = w1 * phi + w2 * (s * sigma.item(g + 2 * s) + alpha * v.item(g + 2 * s))
    return phi


def interface_stress(field: FluidField1D, v_body: float, alpha: float, order: int) -> float:
    """sigma_I = sigma_e + s alpha (v_e - v_body), from the same per-cell
    combination the body solve uses."""
    s = field.grid.outward
    return s * (_edge_flux(field, alpha, order) - alpha * v_body)


def solve_body(
    left: FluidField1D,
    right: FluidField1D,
    left_old: FluidField1D,
    right_old: FluidField1D,
    m_body: float,
    v_body: float,
    dt: float,
    alpha_left: float,
    alpha_right: float,
    order: int,
) -> float:
    """Theta-method body velocity from the interface stresses.

    Solving m (v' - v)/dt = theta F(v', new) + (1 - theta) F(v, old) with
    F = sigma_I_right - sigma_I_left = Phi - (aL + aR) v, Phi the sum of
    both sides' edge fluxes, for v':

        (m + theta dt (aL+aR)) v' = (m - (1-theta) dt (aL+aR)) v
                                    + dt [theta Phi' + (1-theta) Phi]

    Backward Euler (theta = 1, order 1) never reads the old fields.
    """
    theta = SCHEMES[order].theta
    a_sum = alpha_left + alpha_right
    denom = m_body + theta * dt * a_sum
    if denom <= 0.0:
        raise SingularBodyUpdate(
            f"m + {theta:g}*dt*(alpha_L + alpha_R) = {denom:.3g} <= 0; "
            "massless bodies need alpha > 0"
        )
    flux = theta * (_edge_flux(right, alpha_right, order) + _edge_flux(left, alpha_left, order))
    if theta < 1.0:
        flux += (1.0 - theta) * (
            _edge_flux(right_old, alpha_right, order) + _edge_flux(left_old, alpha_left, order)
        )
    return ((m_body - (1.0 - theta) * dt * a_sum) * v_body + dt * flux) / denom


def fill_ghost(field: FluidField1D, v_body: float, sigma_interface: float, order: int) -> None:
    """Set the ghost, in place, to the interface values (order 1) or to the
    reflection of cell 1 through them (order 2): g = (1 + r) I - r u_1."""
    r = SCHEMES[order].reflect
    g, s = field.grid.ghost_index, field.grid.outward
    field.v[g] = (1.0 + r) * v_body - r * field.v.item(g + s)
    field.sigma[g] = (1.0 + r) * sigma_interface - r * field.sigma.item(g + s)


def fill_interface_ghosts(
    left: FluidField1D,
    right: FluidField1D,
    v_body: float,
    alpha_left: float,
    alpha_right: float,
    order: int,
) -> None:
    """Compute interface stresses from the current interiors and set both
    ghost cells in place.  Used at startup and after each body solve."""
    for f, alpha in ((left, alpha_left), (right, alpha_right)):
        fill_ghost(f, v_body, interface_stress(f, v_body, alpha, order), order)


@dataclass
class CoupledState:
    """Fluid fields plus body velocity/position at one time level."""

    left: FluidField1D
    right: FluidField1D
    v_body: float
    x_body: float = 0.0
    t: float = 0.0

    @classmethod
    def initial(
        cls,
        left: FluidField1D,
        right: FluidField1D,
        v_body: float,
        alpha_left: float,
        alpha_right: float,
        order: int,
        x_body: float = 0.0,
    ) -> "CoupledState":
        """State with ghost cells made consistent with the interior data
        (the given fields are copied, not changed)."""
        left, right = left.copy(), right.copy()
        fill_interface_ghosts(left, right, v_body, alpha_left, alpha_right, order)
        return cls(left, right, v_body, x_body, 0.0)


def partitioned_step(
    order: int,
    state: CoupledState,
    mat_left: FluidMaterial,
    mat_right: FluidMaterial,
    m_body: float,
    dt: float,
    alpha_left: float,
    alpha_right: float,
    far_left: tuple[float, float] | None = None,
    far_right: tuple[float, float] | None = None,
) -> CoupledState:
    """One partitioned step: interior update of both fluids, theta-method
    body solve, ghost fill, and theta-method position update."""
    stepper = upwind_step if order == 1 else lax_wendroff_step
    left = stepper(state.left, mat_left, dt, far_left)
    right = stepper(state.right, mat_right, dt, far_right)
    v_new = solve_body(
        left, right, state.left, state.right,
        m_body, state.v_body, dt, alpha_left, alpha_right, order,
    )
    fill_interface_ghosts(left, right, v_new, alpha_left, alpha_right, order)
    theta = SCHEMES[order].theta
    x_new = state.x_body + dt * (theta * v_new + (1.0 - theta) * state.v_body)
    return CoupledState(left, right, v_new, x_new, state.t + dt)


def step_algorithm1(*args, **kwargs) -> CoupledState:
    """Algorithm 1 (upwind, backward Euler): `partitioned_step` at order 1."""
    return partitioned_step(1, *args, **kwargs)


def step_algorithm2(*args, **kwargs) -> CoupledState:
    """Algorithm 2 (Lax-Wendroff, trapezoidal): `partitioned_step` at order 2."""
    return partitioned_step(2, *args, **kwargs)
