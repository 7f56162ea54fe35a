"""Interior update schemes for the 1D linear acoustic half-line.

Both steppers advance the characteristic pair (a, b) on arrays viewed from
the body outward (`Grid1D.outward`), so one code path serves both sides:
the ghost is at index 0, the outgoing family (a on the right, b on the
left) arrives from cell k-1 and the incoming family from cell k+1.  With
lam = c dt/dx, u the outgoing and w the incoming family:

    upwind:        u' = u - lam (u - u_{k-1}),   w' = w + lam (w_{k+1} - w)
    Lax-Wendroff:  x' = x -+ (lam/2)(x_{k+1} - x_{k-1})
                         + (lam^2/2)(x_{k+1} - 2x + x_{k-1})   (- for u, + for w)

One virtual cell past the far end of the grid either copies the last cell
(zeroth-order extrapolation, the default) or takes caller-supplied values.
The ghost cell at the body is read but never written: interface couplers own
it.  Steppers are pure -- they return a new field.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from .materials import FluidField1D, FluidMaterial


class CflViolation(ValueError):
    """Raised when c dt/dx exceeds the stability bound of the stepper."""


def _courant(field: FluidField1D, mat: FluidMaterial, dt: float) -> float:
    if not (dt > 0.0 and isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    lam = mat.c * dt / field.grid.dx
    if lam > 1.0 + 1e-12:
        raise CflViolation(f"c*dt/dx = {lam:.6g} exceeds 1")
    return lam


def _upwind(x, lam):
    """Upwind update, in place, of the (outgoing, incoming) rows of `x`."""
    x[0, 1:-1] = x[0, 1:-1] - lam * (x[0, 1:-1] - x[0, :-2])
    x[1, 1:-1] = x[1, 1:-1] + lam * (x[1, 2:] - x[1, 1:-1])


def _lax_wendroff(x, lam):
    """Lax-Wendroff update, in place, of the (outgoing, incoming) rows of `x`."""
    half, half2 = 0.5 * lam, 0.5 * lam * lam
    prev, ctr, nxt = x[:, :-2], x[:, 1:-1], x[:, 2:]
    x[:, 1:-1] = ctr + np.array([[-half], [half]]) * (nxt - prev) + half2 * (nxt - 2.0 * ctr + prev)


def _step(kernel, field, mat, dt, far_values):
    """Run `kernel` on the characteristics viewed from the body outward and
    map the result back to a field in physical order, ghost restored
    bit-exactly.

    The kernel updates cells 1..n of a (2, n + 2) array: row 0 holds the
    outgoing family, row 1 the incoming one, column 0 the ghost and column
    n + 1 the virtual far cell.  a moves +x, so it is outgoing on the right
    and incoming on the left; `phys` views (a, b) in physical order.
    """
    lam = _courant(field, mat, dt)
    grid = field.grid
    s = grid.outward
    x = np.empty((2, grid.n_cells + 2))
    phys = x[::s, :-1][:, ::s]
    phys[0], phys[1] = field.to_characteristics(mat)
    if far_values is None:
        x[:, -1] = x[:, -2]
    else:
        v_far, sigma_far = far_values
        k = 1.0 / (2.0 * mat.c * mat.z)
        x[::s, -1] = (sigma_far - mat.z * v_far) * k, (sigma_far + mat.z * v_far) * k
    kernel(x, lam)
    out = FluidField1D.from_characteristics(grid, mat, phys[0], phys[1])
    g = grid.ghost_index
    out.v[g] = field.v[g]
    out.sigma[g] = field.sigma[g]
    return out


def upwind_step(field: FluidField1D, mat: FluidMaterial, dt: float,
                far_values: tuple[float, float] | None = None) -> FluidField1D:
    """First-order upwind step of the interior cells."""
    return _step(_upwind, field, mat, dt, far_values)


def lax_wendroff_step(field: FluidField1D, mat: FluidMaterial, dt: float,
                      far_values: tuple[float, float] | None = None) -> FluidField1D:
    """Second-order Lax-Wendroff step of the interior cells."""
    return _step(_lax_wendroff, field, mat, dt, far_values)
