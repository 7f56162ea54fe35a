"""Linear acoustic material data, one-sided grids, and cell-centered fields.

The 1D model problem couples two half-line fluids to a rigid body at the
origin.  Each side carries velocity v and stress sigma on a uniform
cell-centered grid with a single ghost cell at the body.  Characteristic
variables

    a = (sigma - z v) / (2 c z)     (right-moving)
    b = (sigma + z v) / (2 c z)     (left-moving)

diagonalize the system; z = rho*c is the impedance and kappa = rho*c^2 the
bulk modulus.  A coupled run stores the characteristics (`coupling`); a
`FluidField1D` in (v, sigma) is the form runs start from and report in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from sys import float_info

import numpy as np


@dataclass(frozen=True)
class FluidMaterial:
    """Acoustic medium with density rho and sound speed c."""

    rho: float
    c: float
    z: float = field(init=False)
    kappa: float = field(init=False)

    def __post_init__(self):
        if not (self.rho > 0.0 and np.isfinite(self.rho)):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if not (self.c > 0.0 and np.isfinite(self.c)):
            raise ValueError(f"c must be positive and finite, got {self.c}")
        z, kappa = self.rho * self.c, self.rho * self.c * self.c
        # the characteristic transforms scale by z and kappa = c z, and divide by 2 kappa
        if not (float_info.min <= z <= float_info.max and float_info.min <= kappa <= 0.5 / float_info.min):
            raise ValueError(f"rho * c, rho * c**2 and 1/(2 rho c**2) must be normal floats, "
                             f"got rho {self.rho} and c {self.c}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "kappa", kappa)


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered half-line grid on one side of the body.

    The body is a point at x = 0.  Interior cells sit outside it; one ghost
    cell sits just inside, so the body lies midway between the ghost center
    and the nearest interior center.
    Arrays are stored in physical x order, which puts the ghost cell at the
    *last* index on the left side and at index 0 on the right side.
    """

    side: str
    n_cells: int
    dx: float

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        if self.n_cells < 3:
            raise ValueError(f"need n_cells >= 3, got {self.n_cells}")
        if not (self.dx > 0.0 and np.isfinite(self.dx)):
            raise ValueError(f"dx must be positive and finite, got {self.dx}")

    @classmethod
    def uniform(cls, side: str, length: float, dx: float) -> "Grid1D":
        """Grid covering `length` of fluid with cell size dx (n rounded)."""
        return cls(side, int(round(length / dx)), dx)

    @property
    def n_points(self) -> int:
        return self.n_cells + 1

    @cached_property
    def outward(self) -> int:
        """+1 where x grows away from the body (right side), -1 on the left:
        `arr[::outward]` views an array from the body outward (ghost first)."""
        return -1 if self.side == "left" else 1

    @cached_property
    def ghost_index(self) -> int:
        return self.n_cells if self.side == "left" else 0

    @property
    def interior(self) -> slice:
        """Slice selecting interior (non-ghost) cells, in array order."""
        return slice(0, self.n_cells) if self.side == "left" else slice(1, self.n_cells + 1)

    def cell_centers(self) -> np.ndarray:
        """Centers of all cells (ghost included), in array order."""
        k = np.arange(self.n_points)  # cells counted from the body, ghost k = 0
        return (self.outward * ((k - 0.5) * self.dx))[:: self.outward]


@dataclass
class FluidField1D:
    """Velocity/stress state on one grid, ghost cell included."""

    grid: Grid1D
    v: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        npts = self.grid.n_points
        if self.v.shape != (npts,) or self.sigma.shape != (npts,):
            raise ValueError(f"field arrays must have shape ({npts},), "
                             f"got v {self.v.shape} sigma {self.sigma.shape}")

    def to_characteristics(self, mat: FluidMaterial) -> tuple[np.ndarray, np.ndarray]:
        """Return (a, b) with a = (sigma - z v)/(2cz), b = (sigma + z v)/(2cz)."""
        s = 1.0 / (2.0 * mat.c * mat.z)
        return (self.sigma - mat.z * self.v) * s, (self.sigma + mat.z * self.v) * s

    @classmethod
    def from_characteristics(cls, grid: Grid1D, mat: FluidMaterial, a: np.ndarray,
                             b: np.ndarray) -> "FluidField1D":
        """Inverse map: v = c(-a + b), sigma = c z (a + b).

        Evaluated as v = cb - ca, sigma = z(cb) + z(ca), so that with one
        characteristic exactly zero, converting back gives it exactly zero.
        """
        va = mat.c * np.asarray(a, dtype=float)
        vb = mat.c * np.asarray(b, dtype=float)
        return cls(grid, vb - va, mat.z * vb + mat.z * va)
