"""Surface quadrature and added-mass tensors vs analytic/adaptive oracles."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from bodywave.addedmass import (
    AddedMassTensors,
    DegenerateGeometry,
    Ellipse,
    Ellipsoid,
    Prism,
    Rectangle,
    Starfish,
    SurfaceQuadrature,
    UnsupportedShape,
    added_mass_analytic,
    added_mass_tensors,
    sample_surface,
)
from bodywave.addedmass import _curve_samples, _theta_u_grid


# -- derivative-free oracles for the native samplers ----------------------------


def _parametric_curve(fn, n):
    """Unit-impedance quadrature of the closed curve s in [0, 1) -> fn(s),
    (n, 2) positions; tangents are taken spectrally from equispaced samples,
    so fn should be smooth and periodic."""
    pos = np.asarray(fn(np.arange(n) / n), dtype=float)
    k = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0  # drop the unmatched Nyquist mode
    tan = np.real(np.fft.ifft(np.fft.fft(pos, axis=0) * (2j * np.pi * k)[:, None], axis=0))
    pos3, nrm3, wts = _curve_samples(pos, tan, n)
    return SurfaceQuadrature(pos3, nrm3, np.ones(n), wts)


def _parametric_surface(fn, n):
    """Unit-impedance quadrature of the surface (theta, u) in [0, 2 pi) x (-1, 1)
    -> fn(theta, u), (n^2, 3) positions, periodic in theta and oriented so
    that d_theta x d_u points outward; partials by central differences."""
    th, u, w = _theta_u_grid(n)
    th, u = (g.ravel() for g in np.meshgrid(th, u, indexing="ij"))
    h = 1e-6
    d_th, d_u = (fn(th + h, u) - fn(th - h, u)) / (2 * h), (fn(th, u + h) - fn(th, u - h)) / (2 * h)
    vec = np.cross(d_th, d_u)
    metric = np.linalg.norm(vec, axis=1)
    return SurfaceQuadrature(fn(th, u), vec / metric[:, None], np.ones(n * n), w * metric)


# -- sampling -----------------------------------------------------------------


def test_circle_circumference():
    quad = sample_surface(Ellipse(1.3, 1.3), 1.0, 64)
    assert len(quad) == 64
    assert abs(quad.weights.sum() - 2.0 * np.pi * 1.3) < 1e-10


def test_rectangle_perimeter_exact():
    quad = sample_surface(Rectangle(1.0, 2.5), 1.0, 16)
    assert abs(quad.weights.sum() - 2.0 * (1.0 + 2.5)) < 1e-13


def test_prism_surface_area_exact():
    lx, ly, lz = 1.0, 2.0, 0.5
    quad = sample_surface(Prism(lx, ly, lz), 1.0, 8)
    area = 2.0 * (lx * ly + ly * lz + lx * lz)
    assert abs(quad.weights.sum() - area) < 1e-12


def test_starfish_arclength_matches_adaptive_quadrature():
    sf = Starfish.default()

    def speed(s):
        w = 2.0 * np.pi * sf.na
        q = 0.5 * (1.0 + np.sin(w * s))
        dq = 0.5 * w * np.cos(w * s)
        r, dr = q * q, 2.0 * q * dq
        radius, dradius = sf.ra + sf.rb * r, sf.rb * dr
        dth = 2.0 * np.pi + 2.0 * sf.alpha * r * dr
        return np.sqrt(dradius**2 + (radius * dth) ** 2)

    want, err = quad(speed, 0.0, 1.0, limit=400)
    assert err < 1e-7 * want
    got = sample_surface(sf, 1.0, 256).weights.sum()
    assert abs(got - want) / want < 1e-6


def test_sphere_area_and_unit_normals():
    quad = sample_surface(Ellipsoid(2.0, 2.0, 2.0), 1.0, 32)
    assert len(quad) == 32 * 32
    assert abs(quad.weights.sum() - 4.0 * np.pi * 4.0) < 1e-9
    for i in range(0, len(quad), 37):
        assert abs(np.linalg.norm(quad.normals[i]) - 1.0) < 1e-10
        assert quad.weights[i] > 0.0


def test_normals_point_outward_for_star_shaped_bodies():
    shapes = [
        Ellipse(1.0, 0.5),
        Ellipsoid(1.0, 2.0, 3.0),
        Rectangle(1.0, 2.0),
        Prism(1.0, 2.0, 0.5),
    ]
    for shape in shapes:
        quad = sample_surface(shape, 1.0, 16)
        outward = np.sum(quad.normals * quad.positions, axis=1)
        assert np.all(outward > 0.0), f"{shape}: inward normal"


def test_clockwise_parametric_curve_still_gets_outward_normals():
    fn = lambda s: np.column_stack([np.cos(-2 * np.pi * s), np.sin(-2 * np.pi * s)])
    quad = _parametric_curve(fn, 64)
    assert np.all(np.sum(quad.normals * quad.positions, axis=1) > 0.0)


def test_parametric_curve_matches_native_ellipse():
    fn = lambda s: np.column_stack([1.0 * np.cos(2 * np.pi * s), 0.5 * np.sin(2 * np.pi * s)])
    t_fft = added_mass_tensors(_parametric_curve(fn, 256))
    t_ref = added_mass_tensors(sample_surface(Ellipse(1.0, 0.5), 1.0, 256))
    assert np.max(np.abs(t_fft.composite - t_ref.composite)) < 1e-10


def test_parametric_surface_matches_native_ellipsoid():
    a, b, c = 1.0, 1.5, 2.0

    def fn(th, u):
        rt = np.sqrt(1.0 - np.minimum(u * u, 1.0))
        return np.column_stack([a * rt * np.cos(th), b * rt * np.sin(th), c * u])

    t_fd = added_mass_tensors(_parametric_surface(fn, 48))
    t_ref = added_mass_tensors(sample_surface(Ellipsoid(a, b, c), 1.0, 48))
    assert np.max(np.abs(t_fd.composite - t_ref.composite)) < 1e-6


def test_pointlike_curve_raises_degenerate():
    fn = lambda s: np.column_stack([np.ones_like(s), np.zeros_like(s)])
    with pytest.raises(DegenerateGeometry):
        _parametric_curve(fn, 64)


def test_sampling_validation():
    with pytest.raises(ValueError):
        sample_surface(Ellipse(1.0, 1.0), 1.0, 4)
    with pytest.raises(ValueError):
        Ellipse(1.0, -1.0)
    with pytest.raises(ValueError):
        Starfish(0, 0.4, 0.6, 0.1)
    with pytest.raises(UnsupportedShape):
        sample_surface("not a shape", 1.0, 64)
    with pytest.raises(ValueError):
        sample_surface(Ellipse(1.0, 1.0), -2.0, 64)
    # A non-finite dimension is refused at construction, naming the field,
    # before any sampler or closed form sees it.
    inf, nan = np.inf, np.nan
    for make, field in [(lambda: Ellipse(inf, 1.0), "a"), (lambda: Ellipse(1.0, nan), "b"),
                        (lambda: Ellipsoid(inf, 1.0, 1.0), "a"), (lambda: Ellipsoid(1.0, 1.0, inf), "c"),
                        (lambda: Rectangle(inf, 1.0), "lx"), (lambda: Prism(inf, 1.0, 1.0), "lx"),
                        (lambda: Prism(1.0, inf, 1.0), "ly"), (lambda: Starfish(5, inf, 0.6, 0.1), "ra"),
                        (lambda: Starfish(5, 0.4, 0.6, inf), "alpha"),
                        (lambda: Starfish(5, 0.4, 0.6, nan), "alpha")]:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            make()


# -- tensor values ------------------------------------------------------------


def test_default_impedance_is_one():
    # The README's Library example samples without an impedance.
    quad = sample_surface(Ellipsoid(1.0, 1.0, 2.0), resolution=64)
    unit = sample_surface(Ellipsoid(1.0, 1.0, 2.0), 1.0, 64)
    for name in ("positions", "normals", "z_f", "weights"):
        assert np.array_equal(getattr(quad, name), getattr(unit, name)), name
    assert len(quad) == 4096
    # The prolate spheroid's area 2 pi (1 + 4 pi / (3 sqrt 3)) = 21.4784...
    area = 2.0 * np.pi * (1.0 + 4.0 * np.pi / (3.0 * np.sqrt(3.0)))
    assert quad.weights.sum() == pytest.approx(area, rel=1e-12)


def test_sphere_tensors():
    t = added_mass_tensors(sample_surface(Ellipsoid(1.0, 1.0, 1.0), 2.0, 64))
    want = (4.0 * np.pi / 3.0) * 2.0 * np.eye(3)
    assert np.max(np.abs(t.avv - want)) < 1e-10
    assert np.max(np.abs(t.avw)) < 1e-12
    assert np.max(np.abs(t.aww)) < 1e-12


def test_circle_tensors():
    t = added_mass_tensors(sample_surface(Ellipse(0.7, 0.7), 3.0, 64))
    assert abs(t.avv[0, 0] - np.pi * 3.0 * 0.7) < 1e-10
    assert abs(t.avv[1, 1] - np.pi * 3.0 * 0.7) < 1e-10
    assert abs(t.aww[2, 2]) < 1e-14


def test_half_ellipse_reference_values():
    # Printed two-to-three digit targets for b = a/2, plus an adaptive
    # quadrature oracle at full precision.
    a, b = 1.0, 0.5
    t = added_mass_tensors(sample_surface(Ellipse(a, b), 1.0, 512))
    assert abs(t.avv[0, 0] - 1.26) < 5e-3
    assert abs(t.avv[1, 1] - 3.58) < 5e-3
    assert abs(t.aww[2, 2] - 0.581) < 5e-4

    def nfac(th):
        return np.sqrt(b**2 * np.cos(th) ** 2 + a**2 * np.sin(th) ** 2)

    o11 = quad(lambda th: b**2 * np.cos(th) ** 2 / nfac(th), 0, 2 * np.pi, limit=200)[0]
    o22 = quad(lambda th: a**2 * np.sin(th) ** 2 / nfac(th), 0, 2 * np.pi, limit=200)[0]
    o33 = quad(
        lambda th: ((a**2 - b**2) * np.sin(th) * np.cos(th)) ** 2 / nfac(th),
        0, 2 * np.pi, limit=200,
    )[0]
    assert abs(t.avv[0, 0] - o11) < 1e-12
    assert abs(t.avv[1, 1] - o22) < 1e-12
    assert abs(t.aww[2, 2] - o33) < 1e-12


def test_prolate_spheroid_reference_values():
    t = added_mass_tensors(sample_surface(Ellipsoid(1.0, 1.0, 2.0), 1.0, 256))
    assert np.max(np.abs(np.diag(t.avv) - [9.254, 9.254, 2.971])) < 1e-3
    assert np.max(np.abs(np.diag(t.aww) - [4.712, 4.712, 0.0])) < 1e-3


def test_triaxial_ellipsoid_reference_values():
    t = added_mass_tensors(sample_surface(Ellipsoid(1.0, 2.0, 3.0), 1.0, 256))
    assert np.max(np.abs(np.diag(t.avv) - [32.307, 11.023, 5.552])) < 1e-3
    assert np.max(np.abs(np.diag(t.aww) - [6.840, 53.511, 15.963])) < 1e-3


def test_analytic_square_and_cube():
    sq = added_mass_analytic(Rectangle(1.0, 1.0), 1.0)
    assert np.allclose(np.diag(sq.avv), [2.0, 2.0, 0.0], atol=0)
    assert sq.aww[2, 2] == pytest.approx(1.0 / 3.0, abs=1e-15)
    cube = added_mass_analytic(Prism(1.0, 1.0, 1.0), 1.0)
    assert np.allclose(np.diag(cube.avv), [2.0, 2.0, 2.0], atol=0)
    assert np.allclose(np.diag(cube.aww), [1.0 / 3.0] * 3, atol=1e-15)


def test_analytic_rejects_unsupported():
    for shape in (Ellipse(1.0, 0.5), Ellipsoid(1.0, 2.0, 3.0), Starfish.default()):
        with pytest.raises(UnsupportedShape):
            added_mass_analytic(shape, 1.0)


def test_quadrature_converges_to_analytic():
    pairs = [
        (Ellipse(1.0, 1.0), 128, 1e-8),
        (Ellipsoid(1.0, 1.0, 1.0), 128, 1e-8),
        (Rectangle(1.0, 2.0), 16, 1e-10),
        (Prism(1.0, 2.0, 0.5), 16, 1e-10),
    ]
    for shape, res, tol in pairs:
        t = added_mass_tensors(sample_surface(shape, 1.0, res))
        ref = added_mass_analytic(shape, 1.0)
        assert np.max(np.abs(t.composite - ref.composite)) <= tol, f"{shape}"


# -- invariants ---------------------------------------------------------------


def _angle_impedance(p):
    return 1.0 + 0.5 * np.sin(np.arctan2(p[:, 1], p[:, 0]))


def test_psd_quadratic_form_identity():
    q = sample_surface(Ellipse(1.0, 0.5), _angle_impedance, 128)
    t = added_mass_tensors(q)
    rng = np.random.default_rng(5)
    for _ in range(100):
        w = rng.standard_normal(6)
        lhs = w @ t.composite @ w
        rhs = sum(
            q.z_f[i] * q.weights[i]
            * (q.normals[i] @ w[:3] + np.cross(q.positions[i], q.normals[i]) @ w[3:]) ** 2
            for i in range(len(q))
        )
        scale = max(abs(rhs), 1e-300)
        assert abs(lhs - rhs) / scale < 1e-10
        assert lhs >= -1e-10 * np.max(np.abs(t.composite)) * (w @ w)


def test_variable_impedance_keeps_symmetry_and_psd():
    for shape in (Starfish.default(), Ellipsoid(1.0, 2.0, 3.0)):
        t = added_mass_tensors(sample_surface(shape, _angle_impedance, 64))
        scale = np.max(np.abs(t.composite))
        assert np.max(np.abs(t.composite - t.composite.T)) < 1e-10 * scale
        assert np.linalg.eigvalsh(t.composite).min() > -1e-10 * scale


def test_impedance_linearity():
    base = added_mass_tensors(sample_surface(Starfish.default(), 1.0, 64))
    doubled = added_mass_tensors(sample_surface(Starfish.default(), 2.0, 64))
    assert np.array_equal(doubled.composite, 2.0 * base.composite)


def test_planar_shapes_have_zero_out_of_plane_blocks():
    t = added_mass_tensors(sample_surface(Starfish.default(), _angle_impedance, 64))
    assert np.max(np.abs(t.avv[2, :])) == 0.0 and np.max(np.abs(t.avv[:, 2])) == 0.0
    # Yn points along e3, so avw lives in column 3 and aww in entry (3,3)
    assert np.max(np.abs(t.avw[:, :2])) == 0.0
    assert abs(t.aww[2, 2]) > 0.0
    assert np.max(np.abs(t.aww)) == abs(t.aww[2, 2])


@given(
    a=st.floats(0.2, 3.0),
    b=st.floats(0.2, 3.0),
    z=st.floats(0.1, 10.0),
)
@settings(max_examples=25, deadline=None)
def test_ellipse_tensor_invariants(a, b, z):
    t = added_mass_tensors(sample_surface(Ellipse(a, b), z, 32))
    scale = np.max(np.abs(t.composite))
    assert np.max(np.abs(t.composite - t.composite.T)) <= 1e-10 * scale
    assert np.linalg.eigvalsh(t.composite).min() >= -1e-10 * scale
    assert np.max(np.abs(t.awv - t.avw.T)) <= 1e-10 * scale


def test_assembly_rejects_empty():
    with pytest.raises(ValueError):
        added_mass_tensors([])


def test_quadrature_record_checks_weights_and_normals():
    quad = sample_surface(Ellipse(1.0, 0.5), 1.0, 16)
    bad_weights = quad.weights.copy()
    bad_weights[3] = 0.0
    with pytest.raises(DegenerateGeometry, match="weight"):
        SurfaceQuadrature(quad.positions, quad.normals, quad.z_f, bad_weights)
    with pytest.raises(DegenerateGeometry, match="unit length"):
        SurfaceQuadrature(quad.positions, 1.5 * quad.normals, quad.z_f, quad.weights)


@pytest.mark.parametrize("composite, message", [
    (np.eye(3), "composite must be 6x6, got shape (3, 3)"),
    (np.eye(6).ravel(), "composite must be 6x6, got shape (36,)"),
    (np.triu(np.ones((6, 6))), "composite not symmetric"),
], ids=["3x3", "flat", "upper-triangular"])
def test_tensors_refuse_a_bad_composite(composite, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AddedMassTensors(composite)


def test_tensor_blocks_are_read_only_views_of_the_composite():
    t = added_mass_tensors(sample_surface(Ellipsoid(1.0, 2.0, 3.0), _angle_impedance, 16))
    blocks = {"avv": np.s_[:3, :3], "avw": np.s_[:3, 3:],
              "awv": np.s_[3:, :3], "aww": np.s_[3:, 3:]}
    for name, idx in blocks.items():
        block = getattr(t, name)
        assert block.base is t.composite and np.array_equal(block, t.composite[idx]), name
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
    source = np.eye(6)
    AddedMassTensors(source)
    assert source.flags.writeable  # the record holds its own copy
