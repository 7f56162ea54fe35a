"""Added-mass tensors of immersed rigid bodies by surface quadrature.

For a body with surface impedance z_f(r) the interface force linearization
produces four 3x3 tensors built from the outward normal n and the moment
arm factor Yn = y x n (y = r - center):

    A^vv = | z_f n n^T ds          A^vw = | z_f n (Yn)^T ds
    A^wv = | z_f (Yn) n^T ds       A^ww = | z_f (Yn)(Yn)^T ds

assembled into a 6x6 composite, the weighted Gram product of the 6-vector
field g = [n ; Yn], which is symmetric positive semi-definite.  The
quadrature nodes come as one record of arrays: the periodic trapezoid rule
on curves, and on ellipsoids that rule in theta times the Gauss-Legendre
rule in u = cos(polar angle), computed by Golub-Welsch from numpy.linalg.
Planar shapes embed in 3D with n3 = y3 = 0, so a single assembly path serves
both; closed forms exist for the circle and the sphere.
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import float_info

import numpy as np


class DegenerateGeometry(ValueError, ArithmeticError):
    """Surface sampling produced a non-positive metric factor."""


class UnsupportedShape(ValueError, ArithmeticError):
    """No closed-form tensors exist for this shape."""


# -- shapes -------------------------------------------------------------------


def _refuse(name, val, want):
    # an integer past the float range is described, not printed: str() of
    # one with more than 4300 digits raises
    if isinstance(val, int) and abs(val) > float_info.max:
        val = "an integer larger than any float"
    raise ValueError(f"{name} must be {want}, got {val}")


def _require_positive(**dims):
    for name, val in dims.items():
        if not 0.0 < val <= float_info.max:
            _refuse(name, val, "positive and finite")


@dataclass(frozen=True)
class Ellipse:
    """x = (a cos 2 pi s, b sin 2 pi s); a = b is a circle."""

    a: float
    b: float

    def __post_init__(self):
        _require_positive(a=self.a, b=self.b)


@dataclass(frozen=True)
class Ellipsoid:
    """Semi-axes (a, b, c); a = b = c is a sphere."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        _require_positive(a=self.a, b=self.b, c=self.c)


@dataclass(frozen=True)
class Starfish:
    """Pinwheel star curve

        x(s) = R(s) (cos th(s), sin th(s)),   s in [0, 1)
        R = ra + rb r,  th = 2 pi s + alpha r^2,  r = q^2,
        q = (1 + sin(2 pi na s))/2

    with na arms and sweep angle alpha."""

    na: int
    ra: float
    rb: float
    alpha: float

    def __post_init__(self):
        if not (isinstance(self.na, (int, np.integer)) and 1 <= self.na <= 2**53):  # exact as a float
            _refuse("na", self.na, "an integer in [1, 2**53]")
        _require_positive(ra=self.ra, rb=self.rb)
        if not -float_info.max <= self.alpha <= float_info.max:
            _refuse("alpha", self.alpha, "finite")

    @classmethod
    def default(cls) -> "Starfish":
        return cls(na=5, ra=0.4, rb=0.6, alpha=np.pi / 5)


@dataclass(frozen=True)
class SurfaceQuadrature:
    """Quadrature nodes as arrays: positions and outward unit normals (n, 3),
    local impedance z_f and arclength/area weights (n,)."""

    positions: np.ndarray
    normals: np.ndarray
    z_f: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if np.any(self.weights <= 0.0):
            raise DegenerateGeometry("non-positive quadrature weight")
        norms = np.linalg.norm(self.normals, axis=1)
        if not np.all(np.abs(norms - 1.0) < 1e-10):
            raise DegenerateGeometry("normals not unit length")

    def __len__(self) -> int:
        return len(self.weights)


# -- sampling -----------------------------------------------------------------


def _impedance_values(impedance_fn, positions: np.ndarray) -> np.ndarray:
    if impedance_fn is None:
        impedance_fn = 1.0
    z = impedance_fn(positions) if callable(impedance_fn) else float(impedance_fn)
    return np.broadcast_to(np.asarray(z, dtype=float), (len(positions),)).copy()


def _curve_samples(positions2, tangents2, n):
    """Finish a closed-curve sampling from positions and ds/ds tangents."""
    metric = np.hypot(tangents2[:, 0], tangents2[:, 1])
    if np.any(metric <= 0.0) or not np.all(np.isfinite(metric)):
        raise DegenerateGeometry("curve metric factor <= 0")
    t_hat = tangents2 / metric[:, None]
    normals2 = np.column_stack([t_hat[:, 1], -t_hat[:, 0]])
    # flip for clockwise parameterizations (signed area by the shoelace rule)
    area2 = np.sum(positions2[:, 0] * tangents2[:, 1] - positions2[:, 1] * tangents2[:, 0])
    if area2 < 0.0:
        normals2 = -normals2
    weights = metric / n  # periodic trapezoid in s
    pos3 = np.column_stack([positions2, np.zeros(n)])
    nrm3 = np.column_stack([normals2, np.zeros(n)])
    return pos3, nrm3, weights


def _sample_ellipse(shape: Ellipse, n: int):
    th = 2.0 * np.pi * np.arange(n) / n
    pos = np.column_stack([shape.a * np.cos(th), shape.b * np.sin(th)])
    tan = 2.0 * np.pi * np.column_stack([-shape.a * np.sin(th), shape.b * np.cos(th)])
    return _curve_samples(pos, tan, n)


def _sample_starfish(shape: Starfish, n: int):
    s = np.arange(n) / n
    w = 2.0 * np.pi * shape.na
    q = 0.5 * (1.0 + np.sin(w * s))
    dq = 0.5 * w * np.cos(w * s)
    r = q * q
    dr = 2.0 * q * dq
    radius = shape.ra + shape.rb * r
    dradius = shape.rb * dr
    th = 2.0 * np.pi * s + shape.alpha * r * r
    dth = 2.0 * np.pi + 2.0 * shape.alpha * r * dr
    ct, st = np.cos(th), np.sin(th)
    pos = np.column_stack([radius * ct, radius * st])
    tan = np.column_stack(
        [dradius * ct - radius * dth * st, dradius * st + radius * dth * ct]
    )
    return _curve_samples(pos, tan, n)


def _theta_u_grid(n: int):
    """n theta nodes on [0, 2 pi), n Gauss-Legendre u nodes, flattened (n, n) weights.  The
    Legendre rule is Golub-Welsch's: the eigenvalues of the Jacobi matrix (off-diagonal
    k / sqrt(4 k^2 - 1)) and 2 v_0^2 from the first components of its unit eigenvectors."""
    k = np.arange(1.0, n)
    u, vecs = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    gw = 2.0 * vecs[0] ** 2
    return 2.0 * np.pi * np.arange(n) / n, u, np.outer(np.full(n, 2.0 * np.pi / n), gw).ravel()


def _sample_ellipsoid(shape: Ellipsoid, n: int):
    a, b, c = shape.a, shape.b, shape.c
    th, u, W = _theta_u_grid(n)
    rt, cos, sin = np.sqrt(1.0 - u * u), np.cos(th)[:, None], np.sin(th)[:, None]
    # positions (a rt cos, b rt sin, c u) and cross(d_theta, d_u) =
    # (b c rt cos, a c rt sin, a b u), outward, as rows over the theta x u grid
    pos, vec = (np.stack(np.broadcast_arrays(p * rt * cos, q * rt * sin, r * u), axis=-1)
                .reshape(n * n, 3) for p, q, r in ((a, b, c), (b * c, a * c, a * b)))
    metric = np.linalg.norm(vec, axis=1)
    if np.any(metric <= 0.0):
        raise DegenerateGeometry("ellipsoid metric factor <= 0")
    return pos, vec / metric[:, None], W * metric


_SAMPLERS = {Ellipse: _sample_ellipse, Starfish: _sample_starfish, Ellipsoid: _sample_ellipsoid}


def sample_surface(shape, impedance_fn=None, resolution: int = 64) -> SurfaceQuadrature:
    """Quadrature nodes covering the body surface, as one record of arrays.

    resolution means: samples along a closed curve (ellipse, starfish);
    theta x u points per dimension for ellipsoids (resolution^2 total).
    impedance_fn is a constant or a callable mapping (n, 3) positions to
    per-sample z_f >= 0; default 1.
    """
    if resolution < 8:
        raise ValueError(f"resolution must be >= 8, got {resolution}")
    sampler = next((f for kind, f in _SAMPLERS.items() if isinstance(shape, kind)), None)
    if sampler is None:
        raise UnsupportedShape(f"cannot sample {type(shape).__name__}")
    pos, nrm, wts = sampler(shape, resolution)
    z = _impedance_values(impedance_fn, pos)
    if np.any(z < 0.0):
        raise ValueError("impedance must be >= 0")
    return SurfaceQuadrature(pos, nrm, z, wts)


# -- tensor assembly ----------------------------------------------------------


@dataclass(frozen=True)
class AddedMassTensors:
    """The 6x6 composite [[A^vv, A^vw], [A^wv, A^ww]], held read-only; the
    four 3x3 blocks are views of it."""

    composite: np.ndarray

    def __post_init__(self):
        comp = np.array(self.composite, dtype=float)
        if comp.shape != (6, 6):
            raise ValueError(f"composite must be 6x6, got shape {comp.shape}")
        comp.flags.writeable = False
        object.__setattr__(self, "composite", comp)
        scale = max(np.max(np.abs(comp)), 1e-300)
        if not np.max(np.abs(comp - comp.T)) <= 1e-10 * scale:
            raise ValueError("composite not symmetric")

    avv = property(lambda self: self.composite[:3, :3])
    avw = property(lambda self: self.composite[:3, 3:])
    awv = property(lambda self: self.composite[3:, :3])
    aww = property(lambda self: self.composite[3:, 3:])


def added_mass_tensors(quad: SurfaceQuadrature) -> AddedMassTensors:
    """Assemble the composite as the weighted Gram product G^T diag(z_f w) G
    with rows g = [n, y x n], moment arms y = r measured from the coordinate
    origin (the body center in body coordinates)."""
    if len(quad) == 0:
        raise ValueError("no surface samples")
    g = np.hstack([quad.normals, np.cross(quad.positions, quad.normals)])
    return AddedMassTensors(g.T @ ((quad.z_f * quad.weights)[:, None] * g))


def added_mass_analytic(shape, z_f: float = 1.0) -> AddedMassTensors:
    """Closed-form tensors at constant z_f: A^vv = z_f pi a diag(1, 1, 0) for
    a circle of radius a, (4 pi / 3) z_f a^2 I for a sphere; the moment arms
    y x n vanish on both, so the other three blocks are zero."""
    if isinstance(shape, Ellipse) and shape.a == shape.b:
        k = z_f * np.pi * shape.a
        return AddedMassTensors(np.diag([k, k, 0.0, 0.0, 0.0, 0.0]))
    if isinstance(shape, Ellipsoid) and shape.a == shape.b == shape.c:
        k = (4.0 * np.pi / 3.0) * z_f * shape.a**2
        return AddedMassTensors(np.diag([k, k, k, 0.0, 0.0, 0.0]))
    raise UnsupportedShape(f"no closed form for {shape!r}")
