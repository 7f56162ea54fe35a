"""Added-mass Newton-Euler integration and surface projection."""

import os
import re
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

import bodywave
from bodywave.addedmass import (
    AddedMassTensors,
    Ellipsoid,
    added_mass_tensors,
    sample_surface,
)
from bodywave.rigidbody3d import (
    BodyInertia,
    DIRKTableau,
    NewtonDivergence,
    NonphysicalPressure,
    PartialForcing,
    RigidBodyState3D,
    SingularStage,
    _axes_slope,
    _gyroscopic,
    dirk_step,
    project_surface_state,
)


def cross_matrix(w: np.ndarray) -> np.ndarray:
    """Cross(w): the matrix with Cross(w) a = w x a."""
    w0, w1, w2 = np.asarray(w, dtype=float).tolist()
    return np.array([[0.0, -w2, w1], [w2, 0.0, -w0], [-w1, w0, 0.0]])


def _random_psd_tensors(rng, bump=0.5):
    m = rng.standard_normal((6, 6))
    am = m @ m.T + bump * np.eye(6)
    return AddedMassTensors(am)


def _diag_tensors(avv_scale, aww_scale):
    return AddedMassTensors(np.diag([avv_scale] * 3 + [aww_scale] * 3))


def _still_forcing(tensors):
    return lambda t: PartialForcing(np.zeros(3), np.zeros(3), tensors)


def _dirk1():
    """Backward Euler as a one-stage DIRK tableau."""
    return DIRKTableau(np.array([[1.0]]), np.array([1.0]), np.array([1.0]), order=1)


def _massless():
    return BodyInertia(0.0, np.zeros((3, 3)))


# -- basic types ---------------------------------------------------------------


def test_cross_matrix_is_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w, a = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(cross_matrix(w) @ a, np.cross(w, a), atol=1e-15)


def test_state_rejects_non_orthogonal_axes():
    with pytest.raises(ValueError, match="orthogonal"):
        RigidBodyState3D(np.zeros(3), np.zeros(3), np.zeros(3), np.eye(3) + 1e-4)


def test_state_shape_check_survives_python_O():
    """Shape checks raise ValueError, so `python -O` keeps them."""
    src = os.path.dirname(os.path.dirname(bodywave.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = ("import numpy as np\n"
              "from bodywave.rigidbody3d import RigidBodyState3D\n"
              "assert False, 'asserts run: not optimized'\n"
              "try:\n"
              "    RigidBodyState3D(np.zeros(2), np.zeros(3), np.zeros(3), np.eye(3))\n"
              "except ValueError as e:\n"
              "    print(e)\n")
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "x must be a 3-vector, got (2,)"


def test_inertia_validation():
    for mass in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="mass must be finite and >= 0"):
            BodyInertia(mass, np.eye(3))
    with pytest.raises(ValueError):
        BodyInertia(1.0, np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(ValueError):
        BodyInertia(1.0, -np.eye(3))
    BodyInertia(0.0, np.zeros((3, 3)))  # zero mass and inertia are allowed


def test_tableau_construction_and_validation():
    d1, d3 = _dirk1(), DIRKTableau.dirk3()
    assert len(d1.b) == 1 and d1.order == 1 and d1.gamma == 1.0
    assert len(d3.b) == 2 and d3.order == 3
    assert abs(d3.gamma - (0.5 + np.sqrt(3) / 6)) < 1e-15
    with pytest.raises(ValueError, match="sum to 1"):
        DIRKTableau(np.array([[1.0]]), np.array([0.9]), np.array([1.0]), order=1)
    with pytest.raises(ValueError, match="lower triangular"):
        DIRKTableau(np.array([[0.5, 0.1], [0.0, 0.5]]), np.array([0.5, 0.5]),
                    np.array([0.6, 0.5]), order=1)
    with pytest.raises(ValueError, match="order-3"):
        DIRKTableau(np.array([[0.5, 0.0], [0.0, 0.5]]), np.array([0.5, 0.5]),
                    np.array([0.5, 0.5]), order=3)


@pytest.mark.parametrize("make, message", [
    (lambda: RigidBodyState3D(np.zeros(3), np.zeros(3), np.zeros(3), np.eye(2)), "E must be 3x3, got (2, 2)"),
    (lambda: BodyInertia(1.0, np.eye(2)), "A must be 3x3, got (2, 2)"),
    (lambda: BodyInertia(1.0, np.ones(3)), "A must be 3x3, got (3,)"),
    (lambda: PartialForcing(np.zeros(2), np.zeros(3), AddedMassTensors(np.eye(6))),
     "f_tilde and t_tilde must be 3-vectors"),
    (lambda: PartialForcing(np.zeros(3), np.zeros((3, 1)), AddedMassTensors(np.eye(6))),
     "f_tilde and t_tilde must be 3-vectors"),
    (lambda: DIRKTableau(np.eye(2), np.array([1.0]), np.array([1.0]), order=1),
     "a must be 1x1 and c of length 1 for 1 weights"),
    (lambda: DIRKTableau(np.eye(2), np.array([0.5, 0.5]), np.array([1.0]), order=1),
     "a must be 2x2 and c of length 2 for 2 weights"),
    (lambda: DIRKTableau(np.array([[1.0]]), np.array([1.0]), np.array([1.0]), order=2),
     "order must be 1 or 3, got 2"),
    (lambda: DIRKTableau(np.array([[0.5, 0.0], [0.1, 0.4]]), np.array([0.5, 0.5]),
                         np.array([0.5, 0.5]), order=1), "diagonal entries must be equal and nonzero"),
    (lambda: DIRKTableau(np.array([[0.0]]), np.array([1.0]), np.array([0.0]), order=1),
     "diagonal entries must be equal and nonzero"),
    (lambda: DIRKTableau(np.array([[1.0]]), np.array([1.0]), np.array([0.5]), order=1),
     "row sums must equal the abscissae"),
    (lambda: project_surface_state(1.0, np.zeros(3), 1.0, -1.0, np.eye(3)[0], np.zeros(3), 1.4),
     "impedance must be >= 0, got -1.0"),
], ids=["state-E-2x2", "inertia-A-2x2", "inertia-A-vector", "forcing-f-2-vector",
        "forcing-t-column", "tableau-a-too-big", "tableau-c-too-short", "tableau-order-2",
        "tableau-diagonal-unequal", "tableau-diagonal-zero", "tableau-row-sums", "projection-z-negative"])
def test_rigid_body_inputs_are_refused(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


# -- surface forcing by the tensors ---------------------------------------------


def test_constant_pressure_gives_zero_net_force():
    # on a closed surface, sum w n = 0 and sum w (y x n) = 0 about any point
    quad = sample_surface(Ellipsoid(1.0, 2.0, 3.0), 1.5, 48)
    p0, point = 7.0, np.array([0.3, -0.2, 0.1])
    w = p0 * quad.weights[:, None]
    force = -np.sum(w * quad.normals, axis=0)
    torque = -np.sum(w * np.cross(quad.positions - point, quad.normals), axis=0)
    total = p0 * quad.weights.sum()
    assert np.max(np.abs(force)) < 1e-10 * total
    assert np.max(np.abs(torque)) < 1e-10 * total


def test_uniform_fluid_velocity_gives_avv_force():
    quad = sample_surface(Ellipsoid(1.0, 1.0, 2.0), 2.0, 48)
    v0 = np.array([0.4, -0.3, 0.9])
    force = np.sum((quad.z_f * quad.weights * (quad.normals @ v0))[:, None] * quad.normals, axis=0)
    want = added_mass_tensors(quad).avv @ v0
    assert np.max(np.abs(force - want)) < 1e-12 * np.max(np.abs(want))


def test_force_matches_projected_pressure_quadrature():
    # The tensor blocks applied to (v, omega) must equal direct integration of
    # the surface force z (n.rdot) n and its moment y x (z (n.rdot) n), with
    # rdot = v + omega x y the body's surface velocity, y measured from its
    # center at the origin.
    rng = np.random.default_rng(3)
    q = sample_surface(Ellipsoid(1.0, 2.0, 1.5), 1.3, 48)
    tens = added_mass_tensors(q)
    v, omega = rng.standard_normal(3), rng.standard_normal(3)
    force = tens.avv @ v + tens.avw @ omega
    torque = tens.awv @ v + tens.aww @ omega

    f_direct, t_direct = np.zeros(3), np.zeros(3)
    for i in range(len(q)):
        y = q.positions[i]
        rdot = v + np.cross(omega, y)
        traction = q.z_f[i] * (q.normals[i] @ rdot) * q.normals[i]
        f_direct += traction * q.weights[i]
        t_direct += np.cross(y, traction) * q.weights[i]
    scale = max(np.max(np.abs(f_direct)), np.max(np.abs(t_direct)), 1.0)
    assert np.max(np.abs(force - f_direct)) < 1e-10 * scale
    assert np.max(np.abs(torque - t_direct)) < 1e-10 * scale


# -- residual ------------------------------------------------------------------


@dataclass(frozen=True)
class StateSlope:
    """Time derivative of a rigid-body state; E here is a slope, so no
    orthogonality constraint applies."""

    x: np.ndarray
    v: np.ndarray
    omega: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        for name in ("x", "v", "omega", "E"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        assert self.x.shape == self.v.shape == self.omega.shape == (3,)
        assert self.E.shape == (3, 3)


def added_mass_rhs_residual(
    state_dot: StateSlope,
    state: RigidBodyState3D,
    forcing: PartialForcing,
    inertia: BodyInertia,
) -> np.ndarray:
    """Residual of the added-mass Newton-Euler system, 18 components:
    position (3), momentum (3), angular momentum (3), axes (9)."""
    t = forcing.tensors
    w_mat = cross_matrix(state.omega)
    r_x = state_dot.x - state.v
    r_v = inertia.mass * state_dot.v + t.avv @ state.v + t.avw @ state.omega - forcing.f_tilde
    r_w = (
        inertia.A @ state_dot.omega
        + t.awv @ state.v
        + (t.aww + w_mat @ inertia.A) @ state.omega
        - forcing.t_tilde
    )
    r_e = state_dot.E - w_mat @ state.E
    return np.concatenate([r_x, r_v, r_w, r_e.ravel()])


def _zero_slope():
    return StateSlope(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros((3, 3)))


def test_residual_zero_at_rest():
    tens = _diag_tensors(1.0, 1.0)
    forcing = PartialForcing(np.zeros(3), np.zeros(3), tens)
    res = added_mass_rhs_residual(
        _zero_slope(), RigidBodyState3D.rest(), forcing, BodyInertia(1.0, np.eye(3))
    )
    assert res.shape == (18,) and np.max(np.abs(res)) == 0.0


def test_residual_matches_block_assembly():
    rng = np.random.default_rng(4)
    tens = _random_psd_tensors(rng)
    inertia = BodyInertia(0.7, np.diag([1.0, 2.0, 3.0]))
    forcing = PartialForcing(rng.standard_normal(3), rng.standard_normal(3), tens)
    e0, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    state = RigidBodyState3D(rng.standard_normal(3), rng.standard_normal(3),
                             rng.standard_normal(3), e0)
    dot = StateSlope(rng.standard_normal(3), rng.standard_normal(3),
                     rng.standard_normal(3), rng.standard_normal((3, 3)))
    res = added_mass_rhs_residual(dot, state, forcing, inertia)
    w_mat = cross_matrix(state.omega)
    assert np.allclose(res[:3], dot.x - state.v, atol=1e-15)
    assert np.allclose(
        res[3:6],
        inertia.mass * dot.v + tens.avv @ state.v + tens.avw @ state.omega - forcing.f_tilde,
        atol=1e-13,
    )
    assert np.allclose(
        res[6:9],
        inertia.A @ dot.omega + tens.awv @ state.v
        + (tens.aww + w_mat @ inertia.A) @ state.omega - forcing.t_tilde,
        atol=1e-13,
    )
    assert np.allclose(res[9:], (dot.E - w_mat @ state.E).ravel(), atol=1e-15)


def test_residual_massless_reduces_to_balance():
    # With m_b = 0 and A = 0 the momentum rows demand instantaneous balance
    # A^vv v + A^vw w = F~ regardless of the slopes.
    rng = np.random.default_rng(5)
    tens = _random_psd_tensors(rng)
    forcing = PartialForcing(rng.standard_normal(3), rng.standard_normal(3), tens)
    state = RigidBodyState3D(np.zeros(3), rng.standard_normal(3), rng.standard_normal(3), np.eye(3))
    dot_a = StateSlope(state.v, rng.standard_normal(3), rng.standard_normal(3), np.zeros((3, 3)))
    dot_b = StateSlope(state.v, rng.standard_normal(3), rng.standard_normal(3), np.zeros((3, 3)))
    res_a = added_mass_rhs_residual(dot_a, state, forcing, _massless())
    res_b = added_mass_rhs_residual(dot_b, state, forcing, _massless())
    assert np.array_equal(res_a[3:9], res_b[3:9])
    want = tens.avv @ state.v + tens.avw @ state.omega - forcing.f_tilde
    assert np.allclose(res_a[3:6], want, atol=1e-14)


@pytest.mark.parametrize("mass", [0.5, 0.0])
def test_residual_vanishes_on_dirk1_step(mass):
    # Backward Euler makes (y1 - y0)/dt the slope at y1, so a DIRK1 step with
    # frozen forcing must zero the position and momentum rows of the
    # continuous residual; the axes rows are left out because dirk_step
    # reorthonormalizes E.
    rng = np.random.default_rng(8)
    tens = _random_psd_tensors(rng)
    inertia = BodyInertia(mass, np.diag([1.0, 2.0, 3.0]))
    forcing = PartialForcing(rng.standard_normal(3), rng.standard_normal(3), tens)
    e0, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    y0 = RigidBodyState3D(rng.standard_normal(3), rng.standard_normal(3),
                          rng.standard_normal(3), e0)
    dt = 0.05
    y1 = dirk_step(y0, inertia, lambda t: forcing, _dirk1(), dt)
    dot = StateSlope((y1.x - y0.x) / dt, (y1.v - y0.v) / dt,
                     (y1.omega - y0.omega) / dt, (y1.E - y0.E) / dt)
    res = added_mass_rhs_residual(dot, y1, forcing, inertia)
    scale = max(1.0, np.max(np.abs(forcing.f_tilde)), np.max(np.abs(forcing.t_tilde)),
                np.max(np.abs(tens.composite)) * max(np.max(np.abs(y1.v)), np.max(np.abs(y1.omega))))
    assert np.max(np.abs(res[:9])) <= 1e-10 * scale


# -- DIRK stepping -------------------------------------------------------------


def _manufactured_problem():
    rng = np.random.default_rng(1)
    tens = _random_psd_tensors(rng)
    inertia = BodyInertia(0.7, np.diag([1.0, 2.0, 3.0]))

    def f_tilde(t):
        return np.array([np.sin(t), t * t, 1.0 + t])

    def t_tilde(t):
        return np.array([np.cos(t), 0.5 * t, t**3])

    provider = lambda t: PartialForcing(f_tilde(t), t_tilde(t), tens)

    def rhs(t, y):
        v, w, e = y[3:6], y[6:9], y[9:].reshape(3, 3)
        w_mat = cross_matrix(w)
        vdot = (f_tilde(t) - tens.avv @ v - tens.avw @ w) / inertia.mass
        wdot = np.linalg.solve(
            inertia.A, t_tilde(t) - tens.awv @ v - (tens.aww + w_mat @ inertia.A) @ w
        )
        return np.concatenate([v, vdot, wdot, (w_mat @ e).ravel()])

    y0 = np.concatenate([np.zeros(3), [0.1, -0.2, 0.05], [0.3, 0.1, -0.2], np.eye(3).ravel()])
    return inertia, provider, rhs, y0


def _integrate(inertia, provider, tableau, y0, t_final, n_steps):
    state = RigidBodyState3D(y0[:3], y0[3:6], y0[6:9], y0[9:].reshape(3, 3))
    dt, t = t_final / n_steps, 0.0
    for _ in range(n_steps):
        state = dirk_step(state, inertia, provider, tableau, dt, t)
        t += dt
    return state


def _state_error(state, y_ref):
    return max(
        np.max(np.abs(state.x - y_ref[:3])),
        np.max(np.abs(state.v - y_ref[3:6])),
        np.max(np.abs(state.omega - y_ref[6:9])),
        np.max(np.abs(state.E - y_ref[9:].reshape(3, 3))),
    )


def test_dirk_convergence_orders():
    inertia, provider, rhs, y0 = _manufactured_problem()
    t_final = 0.5
    sol = solve_ivp(rhs, [0.0, t_final], y0, rtol=1e-12, atol=1e-14)
    y_ref = sol.y[:, -1]
    for tableau, lo, hi in [(_dirk1(), 0.9, 1.1), (DIRKTableau.dirk3(), 2.8, 3.2)]:
        errs = [
            _state_error(_integrate(inertia, provider, tableau, y0, t_final, n), y_ref)
            for n in (20, 40, 80, 160)
        ]
        rates = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert all(lo <= r <= hi for r in rates), f"order {tableau.order}: {rates}"


def test_dirk1_matches_hand_backward_euler():
    rng = np.random.default_rng(7)
    tens = _random_psd_tensors(rng)
    inertia = BodyInertia(0.3, 2.0 * np.eye(3))  # isotropic A: no gyroscopic term
    f_t, t_t = rng.standard_normal(3), rng.standard_normal(3)
    provider = lambda t: PartialForcing(f_t, t_t, tens)
    v0, w0 = rng.standard_normal(3), 1e-4 * rng.standard_normal(3)
    state = RigidBodyState3D(np.zeros(3), v0, w0, np.eye(3))
    dt = 0.01
    out = dirk_step(state, inertia, provider, _dirk1(), dt)

    lhs = np.zeros((6, 6))
    lhs[:3, :3] = inertia.mass * np.eye(3) + dt * tens.avv
    lhs[:3, 3:] = dt * tens.avw
    lhs[3:, :3] = dt * tens.awv
    lhs[3:, 3:] = inertia.A + dt * tens.aww
    rhs_vec = np.concatenate([inertia.mass * v0 + dt * f_t, inertia.A @ w0 + dt * t_t])
    sol = np.linalg.solve(lhs, rhs_vec)
    assert np.max(np.abs(out.v - sol[:3])) < 1e-12
    assert np.max(np.abs(out.omega - sol[3:])) < 1e-12
    assert np.max(np.abs(out.x - dt * sol[:3])) < 1e-12
    e1 = np.linalg.solve(np.eye(3) - dt * cross_matrix(sol[3:]), np.eye(3))
    if np.max(np.abs(e1.T @ e1 - np.eye(3))) > 1e-10:  # same post-step fixup
        u, _, vt = np.linalg.svd(e1)
        e1 = u @ vt
    assert np.max(np.abs(out.E - e1)) < 1e-12


def test_zero_mass_body_responds_instantly():
    # With no inertia the velocity must satisfy the force balance v = F~/avv.
    # Backward Euler lands on it in a single step; the two-stage scheme is
    # not stiffly accurate, so it relaxes there geometrically instead.
    tens = _diag_tensors(2.0, 1.0)
    provider = lambda t: PartialForcing(np.array([3.0, 0.0, 0.0]), np.zeros(3), tens)
    out = dirk_step(RigidBodyState3D.rest(), _massless(), provider,
                    _dirk1(), 0.1)
    assert np.max(np.abs(out.v - [1.5, 0.0, 0.0])) < 1e-13
    state = RigidBodyState3D.rest()
    for _ in range(100):
        state = dirk_step(state, _massless(), provider, DIRKTableau.dirk3(), 0.1)
    assert np.max(np.abs(state.v - [1.5, 0.0, 0.0])) < 1e-10


def test_scalar_reduction_matches_1d_decay():
    # One velocity component with diagonal tensors reduces to the 1D
    # backward-Euler quiescent decay factor m/(m + dt avv).
    a, m, dt = 2.0, 1e-3, 0.05
    tens = _diag_tensors(a, 1.0)
    state = RigidBodyState3D(np.zeros(3), np.array([1.0, 0.0, 0.0]), np.zeros(3), np.eye(3))
    out = dirk_step(state, BodyInertia(m, np.eye(3)), _still_forcing(tens),
                    _dirk1(), dt)
    assert abs(out.v[0] - m / (m + dt * a)) < 1e-15


def test_sphere_with_zero_inertia_is_singular():
    sph = added_mass_tensors(sample_surface(Ellipsoid(1.0, 1.0, 1.0), 1.0, 32))
    provider = lambda t: PartialForcing(np.ones(3), np.ones(3), sph)
    with pytest.raises(SingularStage, match="condition number"):
        dirk_step(RigidBodyState3D.rest(), _massless(), provider,
                  _dirk1(), 0.1)


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -0.05])
def test_dirk_step_refuses_a_bad_dt(dt):
    provider = lambda t: PartialForcing(np.zeros(3), np.zeros(3), _diag_tensors(1.0, 1.0))
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        dirk_step(RigidBodyState3D.rest(), BodyInertia(1.0, np.eye(3)), provider, _dirk1(), dt)


def test_rest_state_is_fixed_point():
    tens = _diag_tensors(1.0, 1.0)
    for tableau in (_dirk1(), DIRKTableau.dirk3()):
        out = dirk_step(RigidBodyState3D.rest(), BodyInertia(1.0, np.eye(3)),
                        _still_forcing(tens), tableau, 0.5)
        assert np.array_equal(out.x, np.zeros(3))
        assert np.array_equal(out.v, np.zeros(3))
        assert np.array_equal(out.omega, np.zeros(3))
        assert np.array_equal(out.E, np.eye(3))


def test_stiff_decay_is_a_stable():
    k, dt = 1e6, 1.0
    tens = _diag_tensors(k, 1.0)
    state = RigidBodyState3D(np.zeros(3), np.array([1.0, 0.0, 0.0]), np.zeros(3), np.eye(3))
    inertia = BodyInertia(1.0, np.eye(3))
    r1 = dirk_step(state, inertia, _still_forcing(tens), _dirk1(), dt).v[0]
    r3 = dirk_step(state, inertia, _still_forcing(tens), DIRKTableau.dirk3(), dt).v[0]
    assert abs(r1) < 1.0 and abs(r3) < 1.0
    # the DIRK3 stability function tends to 1 - sqrt(3) at -infinity
    assert abs(r3 - (1.0 - np.sqrt(3.0))) < 1e-4


def test_spin_tracks_exact_rotation():
    omega = np.array([0.0, 0.0, 2.0])
    state = RigidBodyState3D(np.zeros(3), np.zeros(3), omega, np.eye(3))
    inertia = BodyInertia(1.0, np.eye(3))
    provider = _still_forcing(_diag_tensors(0.0, 0.0))
    dt, n = 0.01, 100
    t = 0.0
    for _ in range(n):
        state = dirk_step(state, inertia, provider, DIRKTableau.dirk3(), dt, t)
        t += dt
    th = 2.0 * n * dt
    exact = np.array([[np.cos(th), -np.sin(th), 0.0], [np.sin(th), np.cos(th), 0.0],
                      [0.0, 0.0, 1.0]])
    assert np.max(np.abs(state.E - exact)) < 1e-6
    assert state.orthogonality_drift() <= 1e-10


def test_non_finite_stage_matrix_is_singular():
    # a NaN angular velocity makes the stage matrix's condition number
    # undefined, which the stage check treats like an infinite one
    state = RigidBodyState3D(np.zeros(3), np.zeros(3), np.array([np.nan, 0.0, 0.0]), np.eye(3))
    with pytest.raises(SingularStage, match="condition number inf"):
        dirk_step(state, BodyInertia(1.0, np.diag([1.0, 2.0, 3.0])),
                  _still_forcing(_diag_tensors(1.0, 1.0)), _dirk1(), 0.1)


def test_huge_angular_velocity_is_refused_quietly(capfd):
    """At omega = (1e308, 0, 0) with A = diag(10, 1, 1), A omega overflows in
    the first stage residual and the stage matrix is not finite.  The step is
    refused before the SVD, with no warning (the suite turns a RuntimeWarning
    into an error) and without LAPACK's own error lines on stdout or stderr."""
    state = RigidBodyState3D(np.zeros(3), np.zeros(3), np.array([1e308, 0.0, 0.0]), np.eye(3))
    with pytest.raises(SingularStage, match="stage matrix is not finite"):
        dirk_step(state, BodyInertia(1.0, np.diag([10.0, 1.0, 1.0])),
                  _still_forcing(AddedMassTensors(np.eye(6))), DIRKTableau.dirk3(), 0.1)
    assert capfd.readouterr() == ("", "")


def test_huge_spin_about_an_axis_steps_quietly():
    """At omega = (1e200, 0, 0) with A = I the step ends finite and with no
    warning (the suite turns a RuntimeWarning into an error): the closed-form
    axes row is scaled by s = hypot(1, h |omega|), h = gamma dt, where the
    unscaled W (E + h W E) / (1 + h^2 |omega|^2) overflows from |omega| of
    about 1e154."""
    state = RigidBodyState3D(np.zeros(3), np.zeros(3), np.array([1e200, 0.0, 0.0]), np.eye(3))
    out = dirk_step(state, BodyInertia(1.0, np.eye(3)),
                    _still_forcing(AddedMassTensors(np.eye(6))), DIRKTableau.dirk3(), 0.1)
    assert all(np.isfinite(getattr(out, name)).all() for name in ("x", "v", "omega", "E"))


def test_closed_form_axes_row_matches_the_solve():
    """The E row's stage slope equals (I - h W)^-1 W E solved by LAPACK, to
    1e-14 of its largest entry, on random omega and E with h |omega| <= 1."""
    rng = np.random.default_rng(11)
    for _ in range(500):
        h, w, e = 0.1 * rng.random(), rng.standard_normal(3), rng.standard_normal((3, 3))
        w *= 10.0 ** rng.uniform(-6.0, 0.0) / (h * np.linalg.norm(w))
        want = np.linalg.solve(np.eye(3) - h * cross_matrix(w), cross_matrix(w) @ e)
        assert np.abs(_axes_slope(w.tolist(), e, h) - want).max() <= 1e-14 * np.abs(want).max()


def test_gyroscopic_term_matches_the_matrix_form():
    """The float torque w x Aw and Jacobian block h (Cross(w) A - Cross(Aw))
    equal their matrix forms on random A and omega.  Newton converges with a
    wrong block too, only more slowly, so the goldens cannot catch one."""
    rng = np.random.default_rng(12)
    for _ in range(200):
        m, w, h = rng.standard_normal((3, 3)), rng.standard_normal(3), rng.random()
        A = m @ m.T
        torque, block = _gyroscopic(A.tolist(), *w.tolist(), h)
        scale = np.abs(A).max() * np.abs(w).max()
        assert np.abs(np.array(torque) - cross_matrix(w) @ A @ w).max() <= 1e-14 * scale * np.abs(w).max()
        want = h * (cross_matrix(w) @ A - cross_matrix(A @ w))
        assert np.abs(np.array(block) - want).max() <= 1e-14 * h * scale


def test_non_finite_forcing_raises_divergence():
    tens = _diag_tensors(1.0, 1.0)
    provider = lambda t: PartialForcing(np.array([np.inf, 0.0, 0.0]), np.zeros(3), tens)
    with pytest.raises(NewtonDivergence):
        dirk_step(RigidBodyState3D.rest(), BodyInertia(1.0, np.eye(3)), provider,
                  _dirk1(), 0.1)


def test_singular_newton_jacobian_raises_singular_stage():
    # From rest, backward Euler (dt = 0.5) under the torque (0, 24, 16) with
    # A = diag(1, 3, 4) and no added mass: the stage matrix at rest is
    # diag(1, 1, 1, 1, 3, 4), and the first Newton step lands on w = (0, 4, 2),
    # where the angular block A + dt (W A - Cross(A w)) = [[1, 1, 2], [-3, 3, 0],
    # [4, 0, 4]] is exactly singular, while the residual (8, 0, 0) is not zero
    provider = lambda t: PartialForcing(np.zeros(3), np.array([0.0, 24.0, 16.0]),
                                        _diag_tensors(0.0, 0.0))
    with pytest.raises(SingularStage, match="stage Jacobian solve failed: Singular matrix"):
        dirk_step(RigidBodyState3D.rest(), BodyInertia(1.0, np.diag([1.0, 3.0, 4.0])), provider,
                  _dirk1(), 0.5)


def test_newton_that_wanders_raises_divergence():
    # a fast tumble of an anisotropic body under a large torque in one
    # backward-Euler step of dt = 1: Newton from k = 0 is still far from the
    # root after 25 iterations (|G| about 1e6, and about 5e3 at dt = 0.99 or 1.01)
    state = RigidBodyState3D(np.zeros(3), np.zeros(3), np.array([-40.0, -40.0, 0.0]), np.eye(3))
    provider = lambda t: PartialForcing(np.zeros(3), np.array([1000.0, 1000.0, 0.0]),
                                        _diag_tensors(0.0, 0.0))
    with pytest.raises(NewtonDivergence, match=r"no convergence in 25 iterations \(\|G\| = "):
        dirk_step(state, BodyInertia(1.0, np.diag([0.5, 1.0, 4.0])), provider, _dirk1(), 1.0)


def test_dirk_step_rejects_bad_dt():
    with pytest.raises(ValueError):
        dirk_step(RigidBodyState3D.rest(), BodyInertia(1.0, np.eye(3)),
                  _still_forcing(_diag_tensors(1.0, 1.0)), _dirk1(), 0.0)


# -- surface projection --------------------------------------------------------


def test_projection_matched_velocities_is_identity():
    v = np.array([0.2, -0.1, 0.4])
    p, v_out, rho = project_surface_state(2.0, v, 1.3, 5.0, np.array([1.0, 0, 0]), v, 1.4)
    assert p == 2.0 and rho == 1.3 and np.array_equal(v_out, v)


def test_projection_zero_impedance_keeps_pressure():
    p, _, rho = project_surface_state(
        2.0, np.array([1.0, 0, 0]), 1.3, 0.0, np.array([1.0, 0, 0]), np.zeros(3), 1.4
    )
    assert p == 2.0 and rho == 1.3


def test_projection_formula_values():
    # p_pred=1, z=2, n.(v_pred - v_b)=0.25: p = 1 - 2(0.25) = 0.5 and the
    # density follows the entropy-preserving correction.
    n = np.array([1.0, 0.0, 0.0])
    p, v, rho = project_surface_state(
        1.0, np.array([0.25, 0.0, 0.0]), 1.0, 2.0, n, np.zeros(3), 1.4
    )
    assert abs(p - 0.5) < 1e-15
    assert np.array_equal(v, np.zeros(3))
    assert abs(rho - 0.5 ** (1.0 / 1.4)) < 1e-15


@given(
    p_pred=st.floats(0.1, 10.0),
    rho_pred=st.floats(0.1, 10.0),
    z=st.floats(0.0, 2.0),
    dv=st.floats(-0.4, 0.4),
    gamma=st.floats(1.1, 2.0),
)
@settings(max_examples=200, deadline=None)
def test_projection_preserves_entropy(p_pred, rho_pred, z, dv, gamma):
    n = np.array([0.0, 1.0, 0.0])
    v_pred = np.array([0.0, dv, 0.0])
    try:
        p, _, rho = project_surface_state(p_pred, v_pred, rho_pred, z, n, np.zeros(3), gamma)
    except NonphysicalPressure:
        assert p_pred - z * dv <= 0.0
        return
    s_before = p_pred / rho_pred**gamma
    s_after = p / rho**gamma
    assert abs(s_after - s_before) < 1e-12 * s_before


def test_projection_reports_nonphysical_pressure():
    n = np.array([1.0, 0.0, 0.0])
    with pytest.raises(NonphysicalPressure):
        project_surface_state(1.0, np.array([1.0, 0, 0]), 1.0, 5.0, n, np.zeros(3), 1.4)


def test_projection_input_validation():
    n = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        project_surface_state(-1.0, np.zeros(3), 1.0, 1.0, n, np.zeros(3), 1.4)
    with pytest.raises(ValueError):
        project_surface_state(1.0, np.zeros(3), 1.0, 1.0, n, np.zeros(3), 1.0)
