"""Interior update schemes for the 1D linear acoustic half-line.

The steppers advance a `Characteristics` record in place: the pairs of one
or both sides in one array, each viewed from the body outward
(`Grid1D.outward`), so one code path serves both sides.  x[i, 0] is side i's
outgoing family u (a on the right, b on the left), x[i, 1] its incoming
family w; column 0 is the ghost, columns 1..n the interior and column n + 1
one padding column past the far end.  With lam = c dt/dx:

    upwind:        u' = u - lam (u - u_{k-1}),   w' = w + lam (w_{k+1} - w)
    Lax-Wendroff:  x' = cw x_{k-1} + (1 - lam^2) x + ce x_{k+1},
                   (cw, ce) = (lam/2)(lam + 1, lam - 1) for u, reversed for w

The far end extrapolates at zeroth order (x_{n+1} = x_n), folded into cell n's
coefficients: Lax-Wendroff's ce joins its c0, and upwind's w adds nothing.  A
record's buffer is family-major (rows uL, uR, wL, wR), x views it as (sides,
2, n + 2), and `at` maps x's indices to flat ones for couplers.
`Characteristics.stack` puts B records of one shape on a batch axis, x of
shape (B, sides, 2, n + 2), and `part` views a contiguous run of its members
as a record that steps alone.  Each kernel operation is one ufunc call over
the whole record as one flat run of rows (a write: one run per member, or per
family block), on per-element coefficients, views and scratch built once per
record, so one call steps all B, each at its own Courant numbers,
bit-identically.  Each member's columns but its first and last are written
from its own, identity (Lax-Wendroff) or zero (upwind) coefficients keeping
the ghost and far columns but for a zero's sign.  The far column, zeroed at
the start, enters cell n times 0, so a ghost past the float range turns NaN
the far column before it, then that row's cell n, within its member.  Couplers
own the ghosts; a FluidField1D is converted in and out, and a new field
returns, ghost unchanged.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from .materials import FluidField1D, FluidMaterial


class CflViolation(ValueError, ArithmeticError):
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
    n_cells, steppable by dt, each side at its own Courant number; `grid`,
    the first side's, gives the cells per side (perfbench counts work by it)."""

    def __init__(self, fields, mats, dt: float):
        self.grids, self.mats, self.grid = tuple(f.grid for f in fields), tuple(mats), fields[0].grid
        if any(g.n_cells != self.grid.n_cells for g in self.grids):
            raise ValueError("all sides need the same n_cells")
        lam = np.array([_courant(g, m, dt) for g, m in zip(self.grids, self.mats)])
        half, half2, sign = 0.5 * lam, 0.5 * lam * lam, np.array([[1.0], [-1.0]])
        # per row (family, side): upwind -lam (u) / +lam (w), Lax-Wendroff cw, c0, ce
        self.rows = np.stack([-sign * lam, half2 + sign * half, np.tile(1.0 - lam ** 2, (2, 1)),
                              half2 - sign * half], -1).reshape(-1, 4)
        self._scratch(np.zeros((2, len(fields), self.grid.n_cells + 2)))
        for i, f in enumerate(fields):
            phys = self.physical(i)
            phys[0], phys[1] = f.to_characteristics(self.mats[i])

    @classmethod
    def stack(cls, members) -> "Characteristics":
        """Steppable `members` of one shape copied onto a batch axis, with
        their coefficients and own scratch; `grid`, the first's, sizes work."""
        return cls._record(members[0].grid, np.stack([m.x.swapaxes(-3, -2) for m in members]),
                           np.concatenate([m.rows for m in members]))

    def part(self, start: int, stop: int) -> "Characteristics":
        """Members start..stop - 1 of a stack as a record on the stack's own
        buffer, with their coefficients and own scratch."""
        per = len(self.rows) // len(self.x)  # coefficient rows per member
        return self._record(self.grid, self.x[start:stop].swapaxes(-3, -2), self.rows[per * start:per * stop])

    @classmethod
    def _record(cls, grid, buf, rows) -> "Characteristics":
        ch = cls.__new__(cls)
        ch.grid, ch.rows = grid, rows
        ch._scratch(buf)
        return ch

    # the state, read-only (_scratch builds its flat views once; write into x[...]), and its flat indices
    x = property(lambda self: self._x)
    at = property(lambda self: np.arange(self.flat.size).reshape(self.x.swapaxes(-3, -2).shape).swapaxes(-3, -2))

    def _scratch(self, buf) -> None:
        """x, the family-major C-contiguous `buf` (..., 2, sides, n + 2) viewed as
        (..., sides, 2, n + 2), the flat views of buf that steppers and couplers
        use, and per-element coefficients and scratch over it, built once."""
        self._x, f, (s, m) = buf.swapaxes(-3, -2), buf.reshape(-1), buf.shape[-2:]
        self.flat, self.shifts = f, (f[:-2], f[1:-1], f[2:], f[:-1], f[1:])
        coef, (t, u) = np.repeat(self.rows.T, m, axis=1), np.empty((2, f.size))
        # per row: ghost and far columns keep their values, with (cw, c0, ce) (0, 1, 0) and lam 0
        # there and at w's column 1 (w at k adds t[k + 1]); at cell n, ce joins c0 and w adds t[n + 1] at lam 0
        per = coef.reshape(4, -1, m)
        per[2, :, -2] += per[3, :, -2]
        per[3, :, -2] = 0.0
        per[..., ::m - 1] = np.array([0.0, 0.0, 1.0, 0.0])[:, None, None]
        per[0].reshape(-1, 2, s, m)[:, 1, :, 1] = 0.0
        # per member, all but its first and last column take Lax-Wendroff's t + u, or upwind's
        # t[j] = -+lam (x[j] - x[j-1]) at flat j in the u block and at j - 1 in the w block
        xs, ts, us, half = *(a.reshape(*buf.shape[:-3], -1) for a in (f, t, u)), s * m
        self.lam, self.lw = coef[0, 1:], (*coef[1:, 1:-1], t[1:-1], u[1:-1], *(a[..., 1:-1] for a in (xs, ts, us)))
        self.diffs = t[1:], ((xs[..., 1:half], ts[..., 1:half]), (xs[..., half:-1], ts[..., half + 1:]))

    def physical(self, i: int) -> np.ndarray:
        """View of side i's (a, b) in physical array order, ghost included."""
        s = self.grids[i].outward
        return self.x[i, ::s, :-1][:, ::s]

    def fields(self) -> list[FluidField1D]:
        """(v, sigma) fields in new arrays, one per side."""
        return [FluidField1D.from_characteristics(g, m, *self.physical(i))
                for i, (g, m) in enumerate(zip(self.grids, self.mats))]


def _upwind(ch):
    (_, _, _, xw, xc), (d, ((u, du), (w, dw))) = ch.shifts, ch.diffs
    np.subtract(xc, xw, out=d)
    d *= ch.lam
    u += du
    w += dw


def _lax_wendroff(ch):
    (xw, xc, xe, _, _), (cw, c0, ce, t, u, x, tm, um) = ch.shifts, ch.lw
    np.multiply(xw, cw, out=t)
    np.multiply(xc, c0, out=u)
    t += u
    np.multiply(xe, ce, out=u)
    np.add(tm, um, out=x)


def _step(kernel, field, mat, dt):
    ch = field if isinstance(field, Characteristics) else Characteristics((field,), (mat,), dt)
    kernel(ch)
    if ch is field:
        return field
    out = ch.fields()[0]
    g = field.grid.ghost_index
    out.v[g], out.sigma[g] = field.v[g], field.sigma[g]
    return out


def upwind_step(field, mat=None, dt=None):
    """First-order upwind step of a record (in place) or a FluidField1D."""
    return _step(_upwind, field, mat, dt)


def lax_wendroff_step(field, mat=None, dt=None):
    """Second-order Lax-Wendroff step of a record (in place) or a FluidField1D."""
    return _step(_lax_wendroff, field, mat, dt)
