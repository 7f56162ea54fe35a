"""Interior update schemes for the 1D linear acoustic half-line.

The steppers advance a `Characteristics` record in place: the pairs of one
or both sides in one array, each viewed from the body outward
(`Grid1D.outward`), so one code path serves both sides.  x[i, 0] is side i's
outgoing family u (a on the right, b on the left), x[i, 1] its incoming
family w; column 0 is the ghost, columns 1..n the interior and column n + 1
one virtual cell past the far end.  With lam = c dt/dx:

    upwind:        u' = u - lam (u - u_{k-1}),   w' = w + lam (w_{k+1} - w)
    Lax-Wendroff:  x' = cw x_{k-1} + (1 - lam^2) x + ce x_{k+1},
                   (cw, ce) = (lam/2)(lam + 1, lam - 1) for u, reversed for w

The virtual far cell copies the last cell (zeroth-order extrapolation) or
holds given values.  The ghost is read, never written: couplers own it.  A
FluidField1D is converted in and out; a new field returns, ghost unchanged.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from .materials import FluidField1D, FluidMaterial


class CflViolation(ValueError):
    """Raised when c dt/dx exceeds the stability bound of the stepper."""


def _courant(grid, mat: FluidMaterial, dt: float) -> float:
    if not (dt > 0.0 and isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    lam = mat.c * dt / grid.dx
    if lam > 1.0 + 1e-12:
        raise CflViolation(f"c*dt/dx = {lam:.6g} exceeds 1")
    return lam


class Characteristics:
    """Outward characteristics of `fields` (ghosts included), all with one
    n_cells; `grid`, the first side's, gives the cells per side (perfbench
    counts work by it).  Given dt it can be stepped, each side at its own
    Courant number; far_values[i] = (v, sigma) fixes side i's far cell."""

    def __init__(self, fields, mats, dt: float | None = None, far_values=()):
        self.grids, self.mats, self.grid = tuple(f.grid for f in fields), tuple(mats), fields[0].grid
        if any(g.n_cells != self.grid.n_cells for g in self.grids):
            raise ValueError("all sides need the same n_cells")
        self.x = np.empty((len(fields), 2, self.grid.n_cells + 2))
        for i, f in enumerate(fields):
            phys = self.physical(i)
            phys[0], phys[1] = f.to_characteristics(self.mats[i])
        if dt is None:
            return
        lam = np.array([_courant(g, m, dt) for g, m in zip(self.grids, self.mats)])[:, None]
        self.lam, half, half2, sign = lam, 0.5 * lam, 0.5 * lam * lam, np.array([[[1.0], [-1.0]]])
        self.lw = (half2[:, None] + sign * half[:, None], 1.0 - lam[:, None] ** 2,
                   half2[:, None] - sign * half[:, None])
        self.tmp = np.empty((2,) + self.x[..., 1:-1].shape)
        self.far = []
        for i, fv in enumerate(far_values):
            if fv is not None:
                m, k = self.mats[i], 1.0 / (2.0 * self.mats[i].c * self.mats[i].z)
                ab = (fv[1] - m.z * fv[0]) * k, (fv[1] + m.z * fv[0]) * k
                self.far.append((i, ab[:: self.grids[i].outward]))

    def physical(self, i: int) -> np.ndarray:
        """View of side i's (a, b) in physical array order, ghost included."""
        s = self.grids[i].outward
        return self.x[i, ::s, :-1][:, ::s]

    def fields(self) -> list[FluidField1D]:
        """(v, sigma) fields in new arrays, one per side."""
        return [FluidField1D.from_characteristics(g, m, *self.physical(i))
                for i, (g, m) in enumerate(zip(self.grids, self.mats))]


def _upwind(x, ch):
    t = ch.tmp[0, :, 0]
    np.subtract(x[:, 0, 1:-1], x[:, 0, :-2], out=t)
    t *= ch.lam
    x[:, 0, 1:-1] -= t
    np.subtract(x[:, 1, 2:], x[:, 1, 1:-1], out=t)
    t *= ch.lam
    x[:, 1, 1:-1] += t


def _lax_wendroff(x, ch):
    (cw, c0, ce), (t, u) = ch.lw, ch.tmp
    np.multiply(x[..., :-2], cw, out=t)
    np.multiply(x[..., 1:-1], c0, out=u)
    t += u
    np.multiply(x[..., 2:], ce, out=u)
    np.add(t, u, out=x[..., 1:-1])


def _step(kernel, field, mat, dt, far_values):
    if isinstance(field, Characteristics):
        ch = field
    else:
        _courant(field.grid, mat, dt)  # a field can only be stepped by a valid dt
        ch = Characteristics((field,), (mat,), dt, (far_values,))
    x = ch.x
    x[..., -1] = x[..., -2]
    for i, uw in ch.far:
        x[i, :, -1] = uw
    kernel(x, ch)
    if ch is field:
        return field
    out = ch.fields()[0]
    g = field.grid.ghost_index
    out.v[g], out.sigma[g] = field.v[g], field.sigma[g]
    return out


def upwind_step(field, mat=None, dt=None, far_values=None):
    """First-order upwind step of a record (in place) or a FluidField1D."""
    return _step(_upwind, field, mat, dt, far_values)


def lax_wendroff_step(field, mat=None, dt=None, far_values=None):
    """Second-order Lax-Wendroff step of a record (in place) or a FluidField1D."""
    return _step(_lax_wendroff, field, mat, dt, far_values)
