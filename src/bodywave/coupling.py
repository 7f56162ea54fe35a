"""Partitioned coupling of the two half-line fluids to a rigid body.

A run's stored state is characteristic (`CoupledRun`).  The body sees
interface stresses built from the fluid cells next to it; alpha
interpolates between the traditional coupling (alpha = 0: raw fluid stress)
and the characteristic projection (alpha = z: the incoming characteristic
is replaced using the body velocity).  With s = Grid1D.outward (+1 right,
-1 left), v = s c (w - u) and sigma = c z (u + w), a cell's flux
s sigma + alpha v = s c [(z - alpha) u + (z + alpha) w] is exactly s 2cz w
at alpha = z, so pure outgoing radiation never reaches the body.  With
phi_e = w1 phi_1 + w2 phi_2 extrapolated from the interior cells counted
from the body, sigma_I = s (phi_e - alpha v_body).

The paper's two algorithms are one partitioned step at two orders.  The
order selects the interior stepper and a scheme record (SCHEMES):

    order  interior      edge (w1, w2)  body/position theta   ghost
    1      upwind        (1, 0)         1 (backward Euler)    chars(v_b, sigma_I)
    2      Lax-Wendroff  (3/2, -1/2)    1/2 (trapezoidal)     2 chars(v_b, sigma_I) - chars(cell 1)

The body update is implicit in the interface stresses, which keeps the loop
stable for any mass ratio; it reduces to a scalar solve per step.  Runs of one
order and shape can advance as a (B, 2, 2, n + 2) stack (`Characteristics.stack`,
each run's chars.x a view of its slice): one stencil call, then each `couple`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .materials import FluidField1D, FluidMaterial
from .schemes import Characteristics, lax_wendroff_step, upwind_step


class SingularBodyUpdate(ValueError):
    """Implicit body solve has a non-positive denominator (e.g. massless
    body with alpha = 0 on both sides)."""


class Scheme(NamedTuple):
    """Order-dependent parts of the partitioned step."""

    edge: tuple[float, float]  # weights (w1, w2) of the edge extrapolant
    theta: float               # body and position update: 1 backward Euler, 1/2 trapezoidal
    reflect: float             # ghost = (1 + r) interface value - r cell 1


SCHEMES = {1: Scheme((1.0, 0.0), 1.0, 0.0), 2: Scheme((1.5, -0.5), 0.5, 1.0)}


def interface_sides(chars: Characteristics, alphas) -> list[tuple]:
    """Per-side constants (s, s c, z - alpha, z + alpha, alpha, s z, 1/(2cz))."""
    return [(g.outward, g.outward * m.c, m.z - a, m.z + a, a, g.outward * m.z,
             1.0 / (2.0 * m.c * m.z)) for g, m, a in zip(chars.grids, chars.mats, alphas)]


def edge_fluxes(x, sides, edge) -> tuple[list, list[float]]:
    """Cells 1 and 2 of each side as Python floats, and each side's edge
    flux phi_e, the side's part of the force on the body before -alpha v_body."""
    cells = x[:, :, 1:3].tolist()
    e1, e2 = edge
    phis = []
    for (_, sc, zma, zpa, _, _, _), ((u1, u2), (w1, w2)) in zip(sides, cells):
        phi = sc * (zma * u1 + zpa * w1)
        if e2:
            phi = e1 * phi + e2 * (sc * (zma * u2 + zpa * w2))
        phis.append(phi)
    return cells, phis


def interface_stresses(sides, phis, v_body: float) -> list[float]:
    """sigma_I = s (phi_e - alpha v_body) per side."""
    return [s * (phi - alpha * v_body) for (s, _, _, _, alpha, _, _), phi in zip(sides, phis)]


def fill_ghosts(x, cells, sides, v_body: float, stresses, reflect: float) -> None:
    """Set each ghost, in place, to (1 + r) chars(v_body, sigma_I) - r chars(cell 1)."""
    r = reflect
    for i, ((_, _, _, _, _, sz, k), ((u1, _), (w1, _)), sig) in enumerate(zip(sides, cells, stresses)):
        x[i, 0, 0] = (1.0 + r) * (k * (sig - sz * v_body)) - r * u1
        x[i, 1, 0] = (1.0 + r) * (k * (sig + sz * v_body)) - r * w1


@dataclass
class CoupledState:
    """Fluid fields plus body velocity/position at one time level."""

    left: FluidField1D
    right: FluidField1D
    v_body: float
    x_body: float = 0.0
    t: float = 0.0

    @classmethod
    def initial(cls, left: FluidField1D, right: FluidField1D, v_body: float, alpha_left: float,
                alpha_right: float, order: int, x_body: float = 0.0) -> "CoupledState":
        """State with ghost cells made consistent with the interior data
        (the given fields are copied, not changed).  The ghost rule is
        linear in (v, sigma), so any material's characteristics give the
        same ghost; a unit material's are used."""
        unit = FluidMaterial(1.0, 1.0)
        chars = Characteristics((left, right), (unit, unit))
        sides, (edge, _, reflect) = interface_sides(chars, (alpha_left, alpha_right)), SCHEMES[order]
        cells, phis = edge_fluxes(chars.x, sides, edge)
        fill_ghosts(chars.x, cells, sides, v_body, interface_stresses(sides, phis, v_body), reflect)
        left, right = left.copy(), right.copy()
        for f, filled in zip((left, right), chars.fields()):
            g = f.grid.ghost_index
            f.v[g], f.sigma[g] = filled.v[g], filled.sigma[g]
        return cls(left, right, v_body, x_body, 0.0)


class CoupledRun:
    """A coupled run from `state` (ghosts as given), advanced in place.  It
    stores both sides' (left, right) outward characteristics in `chars`, and
    v_body, x_body, t and `flux`, the sum of both sides' edge fluxes at the
    current level, as Python floats; (v, sigma) fields are built only by
    `state`."""

    def __init__(self, order: int, state: CoupledState, mat_left: FluidMaterial,
                 mat_right: FluidMaterial, m_body: float, dt: float, alpha_left: float,
                 alpha_right: float, far_left: tuple[float, float] | None = None,
                 far_right: tuple[float, float] | None = None):
        self.order, self.scheme, self.dt = order, SCHEMES[order], dt
        self.chars = Characteristics((state.left, state.right), (mat_left, mat_right), dt,
                                     (far_left, far_right))
        theta, a_sum = self.scheme.theta, alpha_left + alpha_right
        self.denom = m_body + theta * dt * a_sum
        if self.denom <= 0.0:
            raise SingularBodyUpdate(f"m + {theta:g}*dt*(alpha_L + alpha_R) = {self.denom:.3g}"
                                     " <= 0; massless bodies need alpha > 0")
        self.keep = m_body - (1.0 - theta) * dt * a_sum
        self.sides = interface_sides(self.chars, (alpha_left, alpha_right))
        self.v_body, self.x_body, self.t = state.v_body, state.x_body, state.t
        phi_l, phi_r = edge_fluxes(self.chars.x, self.sides, self.scheme.edge)[1]
        self.flux = phi_r + phi_l

    def step(self) -> None:
        """One partitioned step: interior update of both fluids, then `couple`."""
        (upwind_step if self.order == 1 else lax_wendroff_step)(self.chars)
        self.couple()

    def couple(self) -> None:
        """Body solve, ghost fill and position update once the interiors are
        at the new level.  m (v' - v)/dt = theta F(v', new) + (1 - theta)
        F(v, old), F = sigma_I_right - sigma_I_left = Phi - (aL + aR) v with
        Phi the sum of both edge fluxes, gives (m + theta dt (aL+aR)) v' =
        (m - (1-theta) dt (aL+aR)) v + dt [theta Phi' + (1-theta) Phi]."""
        x, sides, (edge, theta, reflect) = self.chars.x, self.sides, self.scheme
        cells, (phi_l, phi_r) = edge_fluxes(x, sides, edge)
        flux = theta * (phi_r + phi_l)
        if theta < 1.0:
            flux += (1.0 - theta) * self.flux
        v_old = self.v_body
        v = (self.keep * v_old + self.dt * flux) / self.denom
        fill_ghosts(x, cells, sides, v, interface_stresses(sides, (phi_l, phi_r), v), reflect)
        self.flux = phi_r + phi_l
        self.v_body = v
        self.x_body += self.dt * (theta * v + (1.0 - theta) * v_old)
        self.t += self.dt

    def state(self) -> CoupledState:
        """The current level as (v, sigma) fields in new arrays."""
        left, right = self.chars.fields()
        return CoupledState(left, right, self.v_body, self.x_body, self.t)


def partitioned_step(order: int, state: CoupledState, *args, **kwargs) -> CoupledState:
    run = CoupledRun(order, state, *args, **kwargs)
    run.step()
    return run.state()


def step_algorithm1(state: CoupledState, *args, **kwargs) -> CoupledState:
    """Algorithm 1 (upwind, backward Euler): one order-1 `CoupledRun` step
    from `state`, returned as a new state (arguments as for CoupledRun)."""
    return partitioned_step(1, state, *args, **kwargs)


def step_algorithm2(state: CoupledState, *args, **kwargs) -> CoupledState:
    """Algorithm 2 (Lax-Wendroff, trapezoidal): the same at order 2."""
    return partitioned_step(2, state, *args, **kwargs)
