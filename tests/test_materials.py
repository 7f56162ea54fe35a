import numpy as np
import pytest
from hypothesis import given, strategies as st

from bodywave.materials import FluidMaterial, Grid1D, FluidField1D


def test_material_derived_quantities():
    m = FluidMaterial(rho=2.0, c=3.0)
    assert m.z == 6.0
    assert m.kappa == 18.0


def test_material_validation():
    for rho, c in [(-1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (np.inf, 1.0), (1.0, np.nan),
                   (1.0, 1e-200),  # kappa = rho c^2 underflows to 0
                   (1e300, 1e10),  # z = rho c overflows
                   (1e-320, 1.0),  # z is subnormal
                   (1e300, 1e4)]:  # kappa = 1e308 is finite, but 1/(2 kappa) is subnormal
        with pytest.raises(ValueError):
            FluidMaterial(rho, c)


def test_material_accepts_derived_constants_up_to_the_normal_range():
    for rho, c in ((1e300, 1e3), (1e-300, 1e-3), (1e-150, 1.0)):
        m = FluidMaterial(rho, c)
        assert m.z == rho * c and m.kappa == rho * c * c


class TestGrid1D:
    def test_left_cell_centers(self):
        g = Grid1D("left", 4, 0.5)
        x = g.cell_centers()
        # i = -4..0 with x_i = (i - 1/2) dx, ghost last (just inside the body at 0)
        assert np.allclose(x, [-1.75, -1.25, -0.75, -0.25, 0.25])
        assert g.ghost_index == 4
        # viewed from the body outward: ghost, cells 1..4 (the last is the far end)
        assert list(np.arange(g.n_points)[:: g.outward]) == [4, 3, 2, 1, 0]

    def test_right_cell_centers(self):
        g = Grid1D("right", 4, 0.5)
        x = g.cell_centers()
        assert np.allclose(x, [-0.25, 0.25, 0.75, 1.25, 1.75])
        assert g.ghost_index == 0
        assert list(np.arange(g.n_points)[:: g.outward]) == [0, 1, 2, 3, 4]

    def test_body_edge_midway_between_ghost_and_interior(self):
        for side in ("left", "right"):
            g = Grid1D(side, 5, 0.1)
            x = g.cell_centers()[:: g.outward]
            assert 0.5 * (x[0] + x[1]) == 0.0  # the body sits at x = 0

    def test_interior_slice_excludes_ghost(self):
        gl = Grid1D("left", 5, 0.1)
        gr = Grid1D("right", 5, 0.1)
        idx_l = list(range(gl.n_points))[gl.interior]
        idx_r = list(range(gr.n_points))[gr.interior]
        assert len(idx_l) == len(idx_r) == 5
        assert gl.ghost_index not in idx_l
        assert gr.ghost_index not in idx_r

    def test_uniform_constructor(self):
        g = Grid1D.uniform("left", 2.0, 1.0 / 50.0)
        assert g.n_cells == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D("middle", 5, 0.1)
        with pytest.raises(ValueError):
            Grid1D("left", 2, 0.1)
        with pytest.raises(ValueError):
            Grid1D("left", 5, -0.1)


def test_field_shape_validation():
    g = Grid1D("left", 4, 0.5)
    with pytest.raises(ValueError):
        FluidField1D(g, np.zeros(4), np.zeros(5))


def test_characteristics_known_values():
    # v = c(-a+b), sigma = c z (a+b): pick a=1, b=0 -> v = -c, sigma = cz
    m = FluidMaterial(1.0, 2.0)
    g = Grid1D("right", 3, 0.1)
    f = FluidField1D.from_characteristics(g, m, np.ones(4), np.zeros(4))
    assert np.allclose(f.v, -2.0)
    assert np.allclose(f.sigma, 2.0 * m.z)
    a, b = f.to_characteristics(m)
    assert np.allclose(a, 1.0) and np.allclose(b, 0.0)


@given(
    rho=st.floats(0.1, 10.0),
    c=st.floats(0.1, 10.0),
    v=st.floats(-1e3, 1e3),
    sigma=st.floats(-1e3, 1e3),
)
def test_characteristic_round_trip_within_ulps(rho, c, v, sigma):
    mat = FluidMaterial(rho, c)
    g = Grid1D("left", 3, 0.25)
    f = FluidField1D(g, np.full(4, v), np.full(4, sigma))
    a, b = f.to_characteristics(mat)
    back = FluidField1D.from_characteristics(g, mat, a, b)
    scale_v = max(abs(v), abs(sigma) / mat.z)
    scale_s = max(abs(sigma), mat.z * abs(v))
    assert abs(back.v[0] - v) <= 4 * np.spacing(scale_v + 1e-300), f"v round trip off: {back.v[0]} vs {v}"
    assert abs(back.sigma[0] - sigma) <= 4 * np.spacing(scale_s + 1e-300)
