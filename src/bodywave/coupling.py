"""Partitioned coupling of the two half-line fluids to a rigid body.

A run's stored state is characteristic (`CoupledRun`).  The ghost cells
are not data: at every level, the first included, a run sets them from
cells 1-2 and v_body by the interface rule below.  The body sees
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
stable for any mass ratio; it reduces to a scalar solve per step.  The
interface rule is written once, over a record's flat view at its own indices
(`Characteristics.at`): `_edges` gathers cells 1-2 of both sides and gives
phi_e, `_fill` forms sigma_I and writes the four ghosts.  `couple` and a new
run's ghosts and starting flux use them, with a record's constants built once
by `_interface`.  `couple` is linear, so `interface_matrix` probes (and
spends) a run with unit inputs as a 6 x 10 matrix, and a (B, 2, 2, n + 2)
stack of runs of both orders, each at unit c and z, steps by one stencil
call per order and one batched product (`stability`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .materials import FluidField1D, FluidMaterial
from .schemes import Characteristics, lax_wendroff_step, upwind_step


class SingularBodyUpdate(ValueError, ArithmeticError):
    """Implicit body solve has a non-positive denominator (e.g. massless
    body with alpha = 0 on both sides)."""


class Scheme(NamedTuple):
    """Order-dependent parts of the partitioned step."""

    edge: tuple[float, float]  # weights (w1, w2) of the edge extrapolant
    theta: float               # body and position update: 1 backward Euler, 1/2 trapezoidal
    reflect: float             # ghost = (1 + r) interface value - r cell 1


SCHEMES = {1: Scheme((1.0, 0.0), 1.0, 0.0), 2: Scheme((1.5, -0.5), 0.5, 1.0)}
ORDERS = {"first": 1, "second": 2}  # the scheme names that configs take, and their orders


def _interface(chars: Characteristics, alphas, scheme: Scheme) -> tuple[tuple, tuple]:
    """A record's constants, built once from its flat indices (`chars.at`): for
    `_edges` those of cells 1-2 of rows uL, wL, uR, wR, the edge weights and per
    side (s c, z - alpha, z + alpha); for `_fill` those of the four ghosts, r and
    per side (s, alpha, s z, 1/(2cz)); left side first."""
    (cl, ml, pl, *fill_l), (cr, mr, pr, *fill_r) = [
        (g.outward * mat.c, mat.z - a, mat.z + a, g.outward, a, g.outward * mat.z,
         1.0 / (2.0 * mat.c * mat.z)) for g, mat, a in zip(chars.grids, chars.mats, alphas)]
    return (chars.at[..., 1:3].ravel(), *scheme.edge, cl, ml, pl, cr, mr, pr), \
        (*chars.at[..., 0].ravel().tolist(), scheme.reflect, *fill_l, *fill_r)


def _edges(flat, gather: tuple) -> tuple:
    """Cells 1-2 of rows uL, wL, uR, wR as Python floats, and phi_e left and
    right, each side's part of the force on the body before -alpha v_body."""
    at, e1, e2, cl, ml, pl, cr, mr, pr = gather
    cells = ul1, ul2, wl1, wl2, ur1, ur2, wr1, wr2 = flat[at].tolist()
    phi_l, phi_r = cl * (ml * ul1 + pl * wl1), cr * (mr * ur1 + pr * wr1)
    if e2:
        phi_l, phi_r = (e1 * phi_l + e2 * (cl * (ml * ul2 + pl * wl2)),
                        e1 * phi_r + e2 * (cr * (mr * ur2 + pr * wr2)))
    return cells, phi_l, phi_r


def _fill(flat, ghosts: tuple, cells, phi_l: float, phi_r: float, v: float) -> None:
    """With sigma_I = s (phi_e - alpha v) per side, set the four ghosts to
    (1 + r) chars(v, sigma_I) - r chars(cell 1), as four scalar stores."""
    ul, wl, ur, wr, r, sl, al, zl, kl, sr, ar, zr, kr = ghosts
    ul1, _, wl1, _, ur1, _, wr1, _ = cells
    sig_l, sig_r, zvl, zvr, q = sl * (phi_l - al * v), sr * (phi_r - ar * v), zl * v, zr * v, 1.0 + r
    flat[ul] = q * (kl * (sig_l - zvl)) - r * ul1
    flat[wl] = q * (kl * (sig_l + zvl)) - r * wl1
    flat[ur] = q * (kr * (sig_r - zvr)) - r * ur1
    flat[wr] = q * (kr * (sig_r + zvr)) - r * wr1


@dataclass
class CoupledState:
    """Fluid fields plus body velocity/position at one time level.  A run
    derives its own ghosts, so the ghost values of a state are ignored."""

    left: FluidField1D
    right: FluidField1D
    v_body: float
    x_body: float = 0.0
    t: float = 0.0


class CoupledRun:
    """A coupled run from `state`, advanced in place; at construction it
    fills its ghosts and `flux` as `couple` leaves them after a step.  It
    stores both sides' (left, right) outward characteristics in `chars`, and
    v_body, x_body, t and `flux`, the sum of both sides' edge fluxes at the
    current level, as Python floats; (v, sigma) fields are built only by
    `state`."""

    def __init__(self, order: int, state: CoupledState, mat_left: FluidMaterial,
                 mat_right: FluidMaterial, m_body: float, dt: float, alpha_left: float,
                 alpha_right: float):
        self.order, self.scheme, self.dt = order, SCHEMES[order], dt
        self.chars = Characteristics((state.left, state.right), (mat_left, mat_right), dt)
        theta, a_sum = self.scheme.theta, alpha_left + alpha_right
        self.denom = m_body + theta * dt * a_sum
        if self.denom <= 0.0:
            raise SingularBodyUpdate(f"m + {theta:g}*dt*(alpha_L + alpha_R) = {self.denom:.3g}"
                                     " <= 0; massless bodies need alpha > 0")
        self.keep = m_body - (1.0 - theta) * dt * a_sum
        self.gather, self.ghosts = _interface(self.chars, (alpha_left, alpha_right), self.scheme)
        self.v_body, self.x_body, self.t = state.v_body, state.x_body, state.t
        cells, phi_l, phi_r = _edges(self.chars.flat, self.gather)
        _fill(self.chars.flat, self.ghosts, cells, phi_l, phi_r, self.v_body)
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
        (m - (1-theta) dt (aL+aR)) v + dt [theta Phi' + (1-theta) Phi].  It is
        `_edges`, this solve, then `_fill`, on the record's flat view."""
        flat, theta = self.chars.flat, self.scheme.theta
        cells, phi_l, phi_r = _edges(flat, self.gather)
        flux = theta * (phi_r + phi_l)
        if theta < 1.0:
            flux += (1.0 - theta) * self.flux
        v_old = self.v_body
        v = (self.keep * v_old + self.dt * flux) / self.denom
        _fill(flat, self.ghosts, cells, phi_l, phi_r, v)
        self.flux, self.v_body = phi_r + phi_l, v
        self.x_body += self.dt * (theta * v + (1.0 - theta) * v_old)
        self.t += self.dt

    def state(self) -> CoupledState:
        """The current level as (v, sigma) fields in new arrays."""
        left, right = self.chars.fields()
        return CoupledState(left, right, self.v_body, self.x_body, self.t)


def interface_matrix(run: CoupledRun) -> np.ndarray:
    """The 6 x 10 matrix C of the linear `run.couple`: (v_body, flux, cells 1-2 of
    rows uL, wL, uR, wR) to (their ghosts, v_body, flux), probed by 10 calls with
    unit inputs on the run itself, which this spends, so that `_edges` and `_fill`
    stay the only statement of the rule."""
    flat, at, ghosts, cols = run.chars.flat, run.gather[0], list(run.ghosts[:4]), []
    for j in range(10):
        run.v_body, run.flux, flat[at] = float(j == 0), float(j == 1), np.arange(2, 10) == j
        run.couple()
        cols.append([*flat[ghosts].tolist(), run.v_body, run.flux])
    return np.array(cols).T


def step_algorithm1(state: CoupledState, *args, **kwargs) -> CoupledState:
    """Algorithm 1 (upwind, backward Euler): one order-1 `CoupledRun` step
    from `state` (its ghosts ignored), returned as a new state (arguments
    as for CoupledRun)."""
    run = CoupledRun(1, state, *args, **kwargs)
    run.step()
    return run.state()


def step_algorithm2(state: CoupledState, *args, **kwargs) -> CoupledState:
    """Algorithm 2 (Lax-Wendroff, trapezoidal): the same at order 2."""
    run = CoupledRun(2, state, *args, **kwargs)
    run.step()
    return run.state()
