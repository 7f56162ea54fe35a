"""Added-mass tensors of immersed rigid bodies by surface quadrature.

For a body with surface impedance z_f(r) the interface force linearization
produces four 3x3 tensors built from the outward normal n and the moment
arm factor Yn = y x n (y = r - center):

    A^vv = | z_f n n^T ds          A^vw = | z_f n (Yn)^T ds
    A^wv = | z_f (Yn) n^T ds       A^ww = | z_f (Yn)(Yn)^T ds

assembled into a 6x6 composite, the weighted Gram product of the 6-vector
field g = [n ; Yn], which is symmetric positive semi-definite.  The
quadrature nodes come as one record of arrays.  Planar shapes embed in 3D
with n3 = y3 = 0, so a single assembly path serves both; closed forms
exist for axis-aligned boxes, circles and spheres.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss


class DegenerateGeometry(ValueError, ArithmeticError):
    """Surface sampling produced a non-positive metric factor."""


class UnsupportedShape(ValueError, ArithmeticError):
    """No closed-form tensors exist for this shape."""


# -- shapes -------------------------------------------------------------------


def _require_positive(**dims):
    for name, val in dims.items():
        if not (val > 0.0 and np.isfinite(val)):
            raise ValueError(f"{name} must be positive and finite, got {val}")


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
class Rectangle:
    """Axis-aligned rectangle with full side lengths (lx, ly)."""

    lx: float
    ly: float

    def __post_init__(self):
        _require_positive(lx=self.lx, ly=self.ly)


@dataclass(frozen=True)
class Prism:
    """Axis-aligned box with full side lengths (lx, ly, lz)."""

    lx: float
    ly: float
    lz: float

    def __post_init__(self):
        _require_positive(lx=self.lx, ly=self.ly, lz=self.lz)


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
        if not (isinstance(self.na, (int, np.integer)) and self.na >= 1):
            raise ValueError(f"na must be an integer >= 1, got {self.na}")
        _require_positive(ra=self.ra, rb=self.rb)
        if not np.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")

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
    """n theta nodes on [0, 2 pi), n Gauss-Legendre u nodes, flattened (n, n) weights."""
    u, gw = leggauss(n)
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


def _sample_box(shape, n: int):
    """Gauss points on the faces of an axis-aligned box whose full side lengths
    are astuple(shape): a rectangle's 4 edges or a prism's 6 faces, ordered
    +x, -x, +y, -y (, +z, -z), n points per face dimension."""
    half = 0.5 * np.array(astuple(shape))
    dim = len(half)
    xi, gw = leggauss(n)
    # tangential coordinates (n^(dim-1), dim-1) and weights of the reference face
    face = np.stack(np.meshgrid(*[xi] * (dim - 1), indexing="ij"), axis=-1).reshape(-1, dim - 1)
    face_w = np.prod(np.meshgrid(*[gw] * (dim - 1), indexing="ij"), axis=0).ravel()
    pos, nrm, wts = [], [], []
    for axis in range(dim):
        others = [(axis + k) % dim for k in range(1, dim)]
        for sign in (+1.0, -1.0):
            p = np.zeros((len(face), 3))
            p[:, axis] = sign * half[axis]
            p[:, others] = half[others] * face
            normal = np.zeros((len(face), 3))
            normal[:, axis] = sign
            pos.append(p)
            nrm.append(normal)
            wts.append(np.prod(half[others]) * face_w)
    return np.vstack(pos), np.vstack(nrm), np.concatenate(wts)


_SAMPLERS = {
    Ellipse: _sample_ellipse, Starfish: _sample_starfish, Rectangle: _sample_box,
    Ellipsoid: _sample_ellipsoid, Prism: _sample_box,
}


def sample_surface(shape, impedance_fn=None, resolution: int = 64) -> SurfaceQuadrature:
    """Quadrature nodes covering the body surface, as one record of arrays.

    resolution means: samples along a closed curve; Gauss points per edge
    (rectangle) or per face dimension (prism); theta x u points per
    dimension for ellipsoids (resolution^2 total).
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

    @classmethod
    def from_blocks(cls, avv, avw, awv, aww) -> "AddedMassTensors":
        return cls(np.block([[avv, avw], [awv, aww]]))


def added_mass_tensors(quad: SurfaceQuadrature) -> AddedMassTensors:
    """Assemble the composite as the weighted Gram product G^T diag(z_f w) G
    with rows g = [n, y x n], moment arms y = r measured from the coordinate
    origin (the body center in body coordinates)."""
    if len(quad) == 0:
        raise ValueError("no surface samples")
    g = np.hstack([quad.normals, np.cross(quad.positions, quad.normals)])
    return AddedMassTensors(g.T @ ((quad.z_f * quad.weights)[:, None] * g))


def added_mass_analytic(shape, z_f: float = 1.0) -> AddedMassTensors:
    """Closed-form tensors for boxes, circles and spheres (constant z_f)."""
    zero = np.zeros((3, 3))
    if isinstance(shape, Rectangle):
        lx, ly = shape.lx, shape.ly
        avv = z_f * np.diag([2.0 * ly, 2.0 * lx, 0.0])
        aww = np.diag([0.0, 0.0, z_f * (lx**3 + ly**3) / 6.0])
        return AddedMassTensors.from_blocks(avv, zero, zero, aww)
    if isinstance(shape, Prism):
        lx, ly, lz = shape.lx, shape.ly, shape.lz
        avv = z_f * np.diag([2.0 * ly * lz, 2.0 * lx * lz, 2.0 * lx * ly])
        aww = (z_f / 6.0) * np.diag(
            [
                lx * (ly**3 + lz**3),
                ly * (lx**3 + lz**3),
                lz * (lx**3 + ly**3),
            ]
        )
        return AddedMassTensors.from_blocks(avv, zero, zero, aww)
    if isinstance(shape, Ellipse) and shape.a == shape.b:
        avv = z_f * np.pi * shape.a * np.diag([1.0, 1.0, 0.0])
        return AddedMassTensors.from_blocks(avv, zero, zero, zero.copy())
    if isinstance(shape, Ellipsoid) and shape.a == shape.b == shape.c:
        avv = (4.0 * np.pi / 3.0) * z_f * shape.a**2 * np.eye(3)
        return AddedMassTensors.from_blocks(avv, zero, zero, zero.copy())
    raise UnsupportedShape(f"no closed form for {shape!r}")
