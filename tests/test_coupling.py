"""Interface coupling checked against independent scalar oracles.

The implicit body solves are linear in the unknown velocity, so evaluating
the defining residual at two points and intersecting gives an oracle root
that never touches the hand-derived update formulas.  Interface stresses,
ghosts and body solves are those of a `CoupledRun`, whose state is the
characteristics of the fields it starts from, ghosts excepted: edge fluxes
from its gather `_edges`, ghosts from its fill `_fill`, at construction as
after each step.  The interface rule composed of general helpers, kept
here, is the oracle of the straight-line code.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bodywave.coupling import (
    CoupledRun,
    CoupledState,
    SingularBodyUpdate,
    _edges,
    _fill,
    step_algorithm1,
    step_algorithm2,
)
from bodywave.materials import FluidMaterial, Grid1D, FluidField1D
from bodywave.schemes import Characteristics, lax_wendroff_step, upwind_step

RNG = np.random.default_rng(7)
MAT = FluidMaterial(1.3, 1.7)


def _pair(n=8, dx=0.05, seed_shift=0):
    gl = Grid1D("left", n, dx)
    gr = Grid1D("right", n, dx)
    rng = np.random.default_rng(100 + seed_shift)
    fl = FluidField1D(gl, rng.normal(size=n + 1), rng.normal(size=n + 1))
    fr = FluidField1D(gr, rng.normal(size=n + 1), rng.normal(size=n + 1))
    return fl, fr


def _quiescent(grid):
    return FluidField1D(grid, np.zeros(grid.n_points), np.zeros(grid.n_points))


def _run(fl, fr, order, al, ar, m=1.0, vb=0.0, dt=0.004):
    """A run from the given fields, its ghosts filled by the run."""
    return CoupledRun(order, CoupledState(fl, fr, vb), MAT, MAT, m, dt, al, ar)


@pytest.mark.parametrize("step", [step_algorithm1, step_algorithm2])
def test_sides_of_unequal_length_are_refused(step):
    fl, fr = _quiescent(Grid1D("left", 10, 0.05)), _quiescent(Grid1D("right", 12, 0.05))
    with pytest.raises(ValueError, match="^all sides need the same n_cells$"):
        step(CoupledState(fl, fr, 0.0), MAT, MAT, 1.0, 0.004, MAT.z, MAT.z)


def _stresses(run, v_body, alphas):
    """(left, right) interface stresses s (phi_e - alpha v_body), phi_e from
    the run's gather at its current interiors."""
    _, *phis = _edges(run.chars.flat, run.gather)
    return [g.outward * (phi - a * v_body) for g, phi, a in zip(run.chars.grids, phis, alphas)]


def _outward(f):
    """(v, sigma) viewed from the body outward: ghost, cell 1, cell 2, ..."""
    return f.v[:: f.grid.outward], f.sigma[:: f.grid.outward]


def _linear_root(residual):
    r0, r1 = residual(0.0), residual(1.0)
    return -r0 / (r1 - r0)


def test_interface_stress_first_order_values():
    fl, fr = _pair()
    vb, alpha = 0.37, 1.9
    (vl, sl), (vr, sr) = _outward(fl), _outward(fr)
    got_l, got_r = _stresses(_run(fl, fr, 1, alpha, alpha), vb, (alpha, alpha))
    assert got_l == pytest.approx(sl[1] + alpha * (vb - vl[1]), rel=1e-15)
    assert got_r == pytest.approx(sr[1] + alpha * (vr[1] - vb), rel=1e-15)


def test_interface_stress_second_order_uses_extrapolant():
    fl, fr = _pair()
    vb, alpha = -0.2, 0.8
    for f, got in zip((fl, fr), _stresses(_run(fl, fr, 2, alpha, alpha), vb, (alpha, alpha))):
        v, sigma = _outward(f)
        ev = 1.5 * v[1] - 0.5 * v[2]
        es = 1.5 * sigma[1] - 0.5 * sigma[2]
        sgn = 1.0 if f.grid.side == "right" else -1.0
        expect = es + alpha * sgn * (ev - vb)
        assert got == pytest.approx(expect, rel=1e-14)


def test_alpha_zero_returns_raw_edge_stress():
    """At alpha = 0 the interface stress is cell 1's stress as the run
    stores it, c z (u + w) evaluated as c (z u + z w), whatever v_body."""
    fl, fr = _pair()
    run = _run(fl, fr, 1, 0.0, 0.0)
    u, w = run.chars.x[0, :, 1]
    assert _stresses(run, 123.0, (0.0, 0.0))[0] == MAT.c * (MAT.z * u + MAT.z * w)
    assert _stresses(run, 123.0, (0.0, 0.0))[0] == pytest.approx(_outward(fl)[1][1], rel=1e-15)


def _check_body_solve(order, theta, new_seed, old_seed, m, vb, dt, al, ar, tol):
    """The theta-method residual, built from interface stresses alone, is
    zero at the velocity the run solves for; old interiors enter at the old
    velocity."""
    old = _run(*_pair(seed_shift=old_seed), order, al, ar, m=m, vb=vb, dt=dt)
    new = _run(*_pair(seed_shift=new_seed), order, al, ar, m=m, vb=vb, dt=dt)

    def force(run, v):
        left, right = _stresses(run, v, (al, ar))
        return right - left

    force_old = force(old, vb)

    def residual(v_new):
        return m * (v_new - vb) - dt * (
            theta * force(new, v_new) + (1.0 - theta) * force_old
        )

    old.chars.x[:, :, 1:-1] = new.chars.x[:, :, 1:-1]  # the interiors reach the new level
    old.couple()
    assert old.v_body == pytest.approx(_linear_root(residual), rel=1e-13)
    assert abs(residual(old.v_body)) < tol


def test_backward_euler_solve_matches_linear_oracle():
    _check_body_solve(1, 1.0, 0, 0, m=0.73, vb=0.11, dt=0.004, al=1.3, ar=0.0, tol=1e-14)


def test_trapezoidal_solve_matches_compositional_oracle():
    _check_body_solve(2, 0.5, 1, 2, m=0.2, vb=-0.4, dt=0.01, al=1.7, ar=2.4, tol=1e-13)


def test_singular_body_update_raised():
    fl, fr = _pair()
    for order in (1, 2):
        with pytest.raises(SingularBodyUpdate):
            _run(fl, fr, order, 0.0, 0.0, m=0.0, vb=1.0, dt=0.01)
        # massless is fine once alpha > 0
        _run(fl, fr, order, 1.0, 1.0, m=0.0, vb=1.0, dt=0.01)


def _refill(order, v_body, sigma_i):
    """A run's ghosts refilled by `_fill` from (v_body, sigma_i) on both
    sides; the buffer before the fill is returned too.  At alpha = 0,
    sigma_I = s phi_e, so the edge fluxes s sigma_i give sigma_i exactly."""
    run = _run(*_pair(), order, 0.0, 0.0)
    before = run.chars.x.copy()
    _fill(run.chars.flat, run.ghosts, _edges(run.chars.flat, run.gather)[0], -sigma_i, sigma_i, v_body)
    return run, before


def test_ghost_fill_first_order_sets_interface_values():
    """Each ghost holds exactly the characteristics of (v_body, sigma_I)."""
    run, before = _refill(1, 0.9, -1.1)
    k = 1.0 / (2.0 * MAT.c * MAT.z)
    a, b = (-1.1 - MAT.z * 0.9) * k, (-1.1 + MAT.z * 0.9) * k
    for i, grid in enumerate(run.chars.grids):
        assert tuple(run.chars.physical(i)[:, grid.ghost_index]) == (a, b)
    assert np.array_equal(run.chars.x[:, :, 1:], before[:, :, 1:])


def test_ghost_fill_second_order_reflects_through_interface():
    vb, si = 0.25, 2.0
    run, before = _refill(2, vb, si)
    for f in (run.state().left, run.state().right):
        v, sigma = _outward(f)
        assert 0.5 * (v[0] + v[1]) == pytest.approx(vb, rel=1e-15)
        assert 0.5 * (sigma[0] + sigma[1]) == pytest.approx(si, rel=1e-15)
    assert np.array_equal(run.chars.x[:, :, 1:], before[:, :, 1:])


@pytest.mark.parametrize("m_body", [1.0, 1e-3])
def test_quiescent_projection_decay_first_order(m_body):
    """With still fluid the projection-coupled body sheds velocity at the
    exact per-step factor m/(m + 2 dt z)."""
    mat = FluidMaterial(1.0, np.sqrt(2.0))
    n, dx = 40, 0.025
    fl = _quiescent(Grid1D("left", n, dx))
    fr = _quiescent(Grid1D("right", n, dx))
    dt = 0.8 * dx / mat.c
    state = CoupledState(fl, fr, 1.0)
    expected_ratio = m_body / (m_body + 2.0 * dt * mat.z)
    for _ in range(100):
        if abs(state.v_body) < 1e-280:  # approaching subnormals
            break
        new = step_algorithm1(state, mat, mat, m_body, dt, mat.z, mat.z)
        ratio = new.v_body / state.v_body
        assert abs(ratio - expected_ratio) <= 8 * np.spacing(expected_ratio), (
            f"step ratio {ratio!r} != {expected_ratio!r}"
        )
        state = new


@pytest.mark.parametrize("m_body", [1.0, 1e-3])
def test_quiescent_projection_decay_second_order(m_body):
    mat = FluidMaterial(1.0, np.sqrt(2.0))
    n, dx = 40, 0.025
    fl = _quiescent(Grid1D("left", n, dx))
    fr = _quiescent(Grid1D("right", n, dx))
    dt = 0.8 * dx / mat.c
    state = CoupledState(fl, fr, 1.0)
    expected_ratio = (m_body - dt * mat.z) / (m_body + dt * mat.z)
    for _ in range(100):
        new = step_algorithm2(state, mat, mat, m_body, dt, mat.z, mat.z)
        ratio = new.v_body / state.v_body
        assert abs(ratio - expected_ratio) <= 8 * np.spacing(abs(expected_ratio))
        state = new


def test_quiescent_massless_body():
    """m = 0: algorithm 1 equilibrates instantly, algorithm 2 sits on the
    marginal |A| = 1 mode with v' = -v."""
    mat = FluidMaterial(1.0, np.sqrt(2.0))
    fl = _quiescent(Grid1D("left", 20, 0.05))
    fr = _quiescent(Grid1D("right", 20, 0.05))
    dt = 0.9 * 0.05 / mat.c
    s1 = CoupledState(fl, fr, 1.0)
    assert step_algorithm1(s1, mat, mat, 0.0, dt, mat.z, mat.z).v_body == 0.0
    s2 = CoupledState(fl, fr, 1.0)
    out = step_algorithm2(s2, mat, mat, 0.0, dt, mat.z, mat.z)
    assert out.v_body == pytest.approx(-1.0, abs=1e-15)


@pytest.mark.parametrize("stepper,order", [(step_algorithm1, 1), (step_algorithm2, 2)])
@pytest.mark.parametrize("alpha_scale", [0.0, 1.0])
def test_velocity_boost_equivariance(stepper, order, alpha_scale):
    matl = FluidMaterial(1.0, np.sqrt(2.0))
    matr = FluidMaterial(1.0, np.sqrt(3.0))
    fl, fr = _pair(n=10)
    m, dt = 0.5, 0.01
    al, ar = alpha_scale * matl.z, alpha_scale * matr.z
    boost = 0.77

    base = CoupledState(fl, fr, 0.3)
    shifted_l = FluidField1D(fl.grid, fl.v + boost, fl.sigma.copy())
    shifted_r = FluidField1D(fr.grid, fr.v + boost, fr.sigma.copy())
    lifted = CoupledState(shifted_l, shifted_r, 0.3 + boost)

    if m == 0.0 and al + ar == 0.0:
        pytest.skip("singular")
    out, out_lifted = (
        stepper(base, matl, matr, m, dt, al, ar),
        stepper(lifted, matl, matr, m, dt, al, ar),
    )
    assert out_lifted.v_body == pytest.approx(out.v_body + boost, abs=1e-13)
    assert np.allclose(out_lifted.left.v, out.left.v + boost, atol=1e-13)
    assert np.allclose(out_lifted.right.v, out.right.v + boost, atol=1e-13)
    assert np.allclose(out_lifted.left.sigma, out.left.sigma, atol=1e-13)
    assert np.allclose(out_lifted.right.sigma, out.right.sigma, atol=1e-13)


def test_step_bookkeeping():
    matl = FluidMaterial(1.0, 1.0)
    matr = FluidMaterial(2.0, 1.5)
    fl, fr = _pair(n=8, dx=0.1)
    dt = 0.05
    s0 = CoupledState(fl, fr, 0.4, 1.0)
    s1 = step_algorithm1(s0, matl, matr, 1.0, dt, matl.z, matr.z)
    assert s1.t == pytest.approx(dt)
    assert s1.x_body == pytest.approx(1.0 + dt * s1.v_body)
    s2 = step_algorithm2(s0, matl, matr, 1.0, dt, matl.z, matr.z)
    assert s2.x_body == pytest.approx(1.0 + 0.5 * dt * (0.4 + s2.v_body))


def test_initial_state_ghosts_consistent():
    """A new run's own record holds second-order ghosts that reflect through
    (v_body, sigma_I), and the given fields' characteristics elsewhere."""
    fl, fr = _pair()
    run = _run(fl, fr, 2, 1.0, 2.0, vb=0.5)
    state = run.state()
    for f, si in zip((state.left, state.right), _stresses(run, 0.5, (1.0, 2.0))):
        v, sigma = _outward(f)
        assert 0.5 * (sigma[0] + sigma[1]) == pytest.approx(si, rel=1e-13)
        assert 0.5 * (v[0] + v[1]) == pytest.approx(0.5, rel=1e-13)
    given = Characteristics((fl, fr), (MAT, MAT), run.dt).x
    assert np.array_equal(run.chars.x[:, :, 1:-1], given[:, :, 1:-1])


@pytest.mark.parametrize("stepper", [step_algorithm1, step_algorithm2])
@pytest.mark.parametrize("coupling", ["traditional", "projection", "custom"])
def test_given_ghosts_are_ignored(stepper, coupling):
    """States equal but for their ghosts, zero in one and random of size 1e3
    in the other, step to equal (==) states: a run derives its ghosts."""
    matl, matr = FluidMaterial(1.0, np.sqrt(2.0)), FluidMaterial(2.5, np.sqrt(3.0))
    alphas = {"traditional": (0.0, 0.0), "projection": (matl.z, matr.z), "custom": (0.7, 1.9)}[coupling]
    fl, fr = _pair(n=10, seed_shift=5)
    rng, zeroed, noisy = np.random.default_rng(11), [], []
    for f in (fl, fr):
        g = f.grid.ghost_index
        for out, ghost in ((zeroed, (0.0, 0.0)), (noisy, 1e3 * rng.normal(size=2))):
            v, sigma = f.v.copy(), f.sigma.copy()
            v[g], sigma[g] = ghost
            out.append(FluidField1D(f.grid, v, sigma))
    a, b = (stepper(CoupledState(*fields, 0.3, 0.1, 0.2), matl, matr, 0.6, 0.01, *alphas)
            for fields in (zeroed, noisy))
    assert (a.v_body, a.x_body, a.t) == (b.v_body, b.x_body, b.t)
    for fa, fb in ((a.left, b.left), (a.right, b.right)):
        assert np.array_equal(fa.v, fb.v) and np.array_equal(fa.sigma, fb.sigma)


def _mirror_field(f):
    """x -> -x: the field on the other side, arrays reversed, v negated."""
    other = "left" if f.grid.side == "right" else "right"
    grid = Grid1D(other, f.grid.n_cells, f.grid.dx)
    return FluidField1D(grid, -f.v[::-1], f.sigma[::-1].copy())


def _mirror(state):
    return CoupledState(_mirror_field(state.right), _mirror_field(state.left),
                        -state.v_body, -state.x_body, state.t)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("alpha_scale", [0.0, 1.0])
def test_step_commutes_with_mirror_reflection(order, alpha_scale):
    """Reflecting x -> -x (swap sides, reverse arrays, negate v and v_body,
    keep sigma, swap materials and alphas) commutes with one
    partitioned step."""
    matl, matr = FluidMaterial(1.0, np.sqrt(2.0)), FluidMaterial(2.5, np.sqrt(3.0))
    al, ar = alpha_scale * matl.z, alpha_scale * matr.z
    fl, fr = _pair(n=10, seed_shift=3)
    state = CoupledState(fl, fr, 0.3, 0.05, 0.2)
    m, dt = 0.6, 0.8 * fl.grid.dx / matr.c
    stepper = step_algorithm1 if order == 1 else step_algorithm2

    out = _mirror(stepper(state, matl, matr, m, dt, al, ar))
    got = stepper(_mirror(state), matr, matl, m, dt, ar, al)
    scale = max(np.max(np.abs(f)) for f in (fl.v, fl.sigma, fr.v, fr.sigma))
    for a, b in ((got.left, out.left), (got.right, out.right)):
        assert a.grid == b.grid
        assert np.max(np.abs(a.v - b.v)) <= 1e-14 * scale
        assert np.max(np.abs(a.sigma - b.sigma)) <= 1e-14 * scale
    assert abs(got.v_body - out.v_body) <= 1e-14 * scale
    assert abs(got.x_body - out.x_body) <= 1e-14 * scale
    assert got.t == out.t


# The interface rule as general helpers over a (sides, 2, n + 2) record: the
# oracle of the straight-line `_edges` / `_fill` in `coupling`.


def interface_sides(chars, alphas) -> list[tuple]:
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


def _initial_ghosts_by_helpers(run, state, alphas):
    """A new run's record and flux as the helpers give them: the record back
    at the characteristics of `state`'s fields, given ghosts included, then
    ghosts filled from its cells 1-2 and v_body."""
    x, sides, (edge, _, reflect) = run.chars.x, interface_sides(run.chars, alphas), run.scheme
    x[...] = Characteristics((state.left, state.right), run.chars.mats, run.dt).x
    cells, (phi_l, phi_r) = edge_fluxes(x, sides, edge)
    fill_ghosts(x, cells, sides, state.v_body, interface_stresses(sides, (phi_l, phi_r), state.v_body), reflect)
    run.flux = phi_r + phi_l


def _couple_by_helpers(run, alphas):
    """`couple` as edge_fluxes -> interface_stresses -> fill_ghosts compose it."""
    x, sides, (edge, theta, reflect) = run.chars.x, interface_sides(run.chars, alphas), run.scheme
    cells, (phi_l, phi_r) = edge_fluxes(x, sides, edge)
    flux = theta * (phi_r + phi_l)
    if theta < 1.0:
        flux += (1.0 - theta) * run.flux
    v_old = run.v_body
    v = (run.keep * v_old + run.dt * flux) / run.denom
    fill_ghosts(x, cells, sides, v, interface_stresses(sides, (phi_l, phi_r), v), reflect)
    run.flux = phi_r + phi_l
    run.v_body = v
    run.x_body += run.dt * (theta * v + (1.0 - theta) * v_old)
    run.t += run.dt


@given(order=st.sampled_from([1, 2]), coupling=st.sampled_from(["traditional", "projection", "custom"]),
       mass=st.sampled_from([0.0, 1e-6, 1e-3, 1.0, 100.0]),
       custom=st.tuples(*[st.one_of(st.just(0.0), st.floats(0.01, 5.0))] * 2),
       v_body=st.floats(-2.0, 2.0), seed=st.integers(0, 2**31))
@settings(max_examples=80, derandomize=True, deadline=None)
def test_straight_line_couple_equals_the_helper_path(order, coupling, mass, custom, v_body, seed):
    """Over random states, masses, both orders and alpha in {0, z, custom},
    a new run's ghosts and flux, from fields with random ghosts, and each
    step's v_body, x_body, flux, t and ghosts equal (==) those of the
    edge_fluxes -> interface_stresses -> fill_ghosts path."""
    rng = np.random.default_rng(seed)
    mats = FluidMaterial(*rng.uniform(0.5, 2.0, 2)), FluidMaterial(*rng.uniform(0.5, 2.0, 2))
    alphas = {"traditional": (0.0, 0.0), "projection": (mats[0].z, mats[1].z), "custom": custom}[coupling]
    if mass + sum(alphas) == 0.0:
        return  # singular: refused, see test_singular_body_update_raised
    fl, fr = _pair(n=10, seed_shift=int(rng.integers(1000)))
    dt = 0.9 * fl.grid.dx / max(m.c for m in mats)
    state = CoupledState(fl, fr, v_body, float(rng.normal()), float(rng.uniform(0.0, 1.0)))
    run, oracle = (CoupledRun(order, state, *mats, mass, dt, *alphas) for _ in range(2))
    _initial_ghosts_by_helpers(oracle, state, alphas)
    assert run.flux == oracle.flux
    assert np.array_equal(run.chars.x[..., :-1], oracle.chars.x[..., :-1])  # the far cell is set by a step
    stepper = upwind_step if order == 1 else lax_wendroff_step
    for _ in range(6):
        run.step()
        stepper(oracle.chars)
        _couple_by_helpers(oracle, alphas)
        assert (run.v_body, run.x_body, run.flux, run.t) == (oracle.v_body, oracle.x_body, oracle.flux, oracle.t)
        assert np.array_equal(run.chars.x, oracle.chars.x)
