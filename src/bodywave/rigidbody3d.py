"""Added-mass Newton-Euler equations for a rigid body and DIRK integration.

State y = (x_b, v_b, omega, E) obeys

    x_b' = v_b
    m_b v_b' + A^vv v_b + A^vw w + ... = F~        (momentum)
    A w' + A^wv v_b + (A^ww + W A) w = T~          (angular momentum)
    E' = W E,   W = Cross(omega)

with the added-mass tensors on the left-hand side.  Each DIRK stage solves
the implicit system by Newton iteration on the (v, omega) stage slopes; the
E row is linear given omega, with a closed-form solution, and the position
row is explicit, so the 21-unknown stage system reduces by block elimination.
Because the added-mass terms are implicit the step remains well defined as
m_b and A go to zero, provided the composite tensor is nonsingular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np  # numpy.linalg's SVD and solve are all the LAPACK this module needs

from .addedmass import AddedMassTensors


class SingularStage(RuntimeError, ArithmeticError):
    """The implicit stage matrix is (numerically) singular."""


class NewtonDivergence(RuntimeError, ArithmeticError):
    """The stage Newton iteration failed to converge."""


class NonphysicalPressure(ValueError, ArithmeticError):
    """Surface projection produced a non-positive pressure."""


_EYE3 = np.eye(3)


def _drift(E: np.ndarray) -> float:
    """Orthogonality drift of the axes E, max |E^T E - I|."""
    return float(np.abs(E.T @ E - _EYE3).max())


@dataclass(frozen=True)
class RigidBodyState3D:
    """Center of mass, its velocity, angular velocity, and principal axes."""

    x: np.ndarray
    v: np.ndarray
    omega: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        for name in ("x", "v", "omega"):
            vec = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, vec)
            if vec.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector, got {vec.shape}")
        E = np.asarray(self.E, dtype=float)
        object.__setattr__(self, "E", E)
        if E.shape != (3, 3):
            raise ValueError(f"E must be 3x3, got {E.shape}")
        drift = _drift(E)
        if drift > 1e-8:
            raise ValueError(f"E is not orthogonal: drift {drift:.3e}")
        object.__setattr__(self, "_e_drift", drift)

    @classmethod
    def rest(cls) -> "RigidBodyState3D":
        return cls(np.zeros(3), np.zeros(3), np.zeros(3), np.eye(3))

    def orthogonality_drift(self) -> float:
        return self._e_drift


@dataclass(frozen=True)
class BodyInertia:
    """Body mass and moment-of-inertia matrix (both may be zero)."""

    mass: float
    A: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass >= 0.0):
            raise ValueError(f"mass must be finite and >= 0, got {self.mass}")
        A = np.asarray(self.A, dtype=float)
        object.__setattr__(self, "A", A)
        if A.shape != (3, 3):
            raise ValueError(f"A must be 3x3, got {A.shape}")
        scale = max(np.max(np.abs(A)), 1e-300)
        if np.max(np.abs(A - A.T)) > 1e-10 * scale:
            raise ValueError("inertia matrix must be symmetric")
        if np.linalg.eigvalsh(A).min() < -1e-10 * scale:
            raise ValueError("inertia matrix must be positive semi-definite")


@dataclass(frozen=True)
class PartialForcing:
    """Velocity-independent force/torque parts and the added-mass tensors."""

    f_tilde: np.ndarray
    t_tilde: np.ndarray
    tensors: AddedMassTensors

    def __post_init__(self):
        object.__setattr__(self, "f_tilde", np.asarray(self.f_tilde, dtype=float))
        object.__setattr__(self, "t_tilde", np.asarray(self.t_tilde, dtype=float))
        if self.f_tilde.shape != (3,) or self.t_tilde.shape != (3,):
            raise ValueError("f_tilde and t_tilde must be 3-vectors")


# -- DIRK integration ---------------------------------------------------------


@dataclass(frozen=True)
class DIRKTableau:
    """Diagonally implicit Runge-Kutta tableau with equal diagonal gamma."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    order: int

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        s = len(b)
        if a.shape != (s, s) or c.shape != (s,):
            raise ValueError(f"a must be {s}x{s} and c of length {s} for {s} weights")
        if self.order not in (1, 3):
            raise ValueError(f"order must be 1 or 3, got {self.order}")
        if np.max(np.abs(np.triu(a, 1))) != 0.0:
            raise ValueError("tableau must be lower triangular")
        diag = np.diag(a)
        if diag[0] == 0.0 or np.max(np.abs(diag - diag[0])) > 1e-14:
            raise ValueError("diagonal entries must be equal and nonzero")
        if abs(b.sum() - 1.0) > 1e-14:
            raise ValueError("stage weights must sum to 1")
        if np.max(np.abs(a.sum(axis=1) - c)) > 1e-14:
            raise ValueError("row sums must equal the abscissae")
        if self.order == 3:
            checks = {
                "sum b c = 1/2": b @ c - 0.5,
                "sum b c^2 = 1/3": b @ c**2 - 1.0 / 3.0,
                "sum b a c = 1/6": b @ a @ c - 1.0 / 6.0,
            }
            for name, err in checks.items():
                if abs(err) > 1e-14:
                    raise ValueError(f"order-3 condition failed: {name} (err {err:.2e})")

    @property
    def gamma(self) -> float:
        return float(self.a[0, 0])

    @classmethod
    def dirk3(cls) -> "DIRKTableau":
        g = 0.5 + np.sqrt(3.0) / 6.0
        a = np.array([[g, 0.0], [-np.sqrt(3.0) / 3.0, g]])
        return cls(a, np.array([0.5, 0.5]), np.array([g, 1.0 - g]), order=3)


def _gyroscopic(a, w0, w1, w2, h):
    """The torque w x Aw and its Jacobian block h (Cross(w) A - Cross(Aw)) in Python
    floats, from the rows a of A: a product past the float range reads inf or nan, quietly."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    p0, p1, p2 = (a00 * w0 + a01 * w1 + a02 * w2, a10 * w0 + a11 * w1 + a12 * w2,
                  a20 * w0 + a21 * w1 + a22 * w2)
    torque = (w1 * p2 - w2 * p1, w2 * p0 - w0 * p2, w0 * p1 - w1 * p0)
    block = ((h * (w1 * a20 - w2 * a10), h * (w1 * a21 - w2 * a11 + p2), h * (w1 * a22 - w2 * a12 - p1)),
             (h * (w2 * a00 - w0 * a20 - p2), h * (w2 * a01 - w0 * a21), h * (w2 * a02 - w0 * a22 + p0)),
             (h * (w0 * a10 - w1 * a00 + p1), h * (w0 * a11 - w1 * a01 - p0), h * (w0 * a12 - w1 * a02)))
    return torque, block


def _axes_slope(w, e, h):
    """The E row's stage slope (I - h W)^-1 W E, W = Cross(w).  W^3 = -|w|^2 W makes it
    W (E + h W E) / s^2 = (Cross(c) / s + h (c c^T - |c|^2 I)) E with s = hypot(1, h |w|) and
    c = w / s.  Each |h c_j| <= 1, so no entry overflows where the slope does not."""
    s = math.hypot(1.0, h * math.hypot(*w))
    c0, c1, c2 = w[0] / s, w[1] / s, w[2] / s
    b0, b1, b2, d0, d1, d2 = h * c0, h * c1, h * c2, c0 / s, c1 / s, c2 / s
    return np.array([[-(b1 * c1 + b2 * c2), b0 * c1 - d2, b0 * c2 + d1],
                     [b0 * c1 + d2, -(b0 * c0 + b2 * c2), b1 * c2 - d0],
                     [b0 * c2 - d1, b1 * c2 + d0, -(b0 * c0 + b1 * c1)]]) @ e


def _solve_stage(A, forcing, lin, gamma_dt, u_base):
    """Newton solve for the stage slopes k = (k_v, k_w) of the momentum rows

        diag(m I, A) k + A_m u + (0, w x A w) - (F~, T~) = 0,

    u = u_base + gamma_dt k = (v, w), A_m the 6x6 composite,
    given the linear part lin = L = gamma_dt A_m + diag(m I, A).  The constant
    part A_m u_base - (F~, T~) is built once; each iteration adds only the
    gyroscopic term w x A w and its Jacobian block.  Returns k and the stage w."""
    comp = forcing.tensors.composite
    forcing_6 = np.concatenate([forcing.f_tilde, forcing.t_tilde])
    g_const = comp @ u_base - forcing_6
    u, a = u_base.tolist(), A.tolist()

    def residual(k):
        w = [w_b + gamma_dt * k_w for w_b, k_w in zip(u[3:], k[3:].tolist())]
        torque, block = _gyroscopic(a, *w, gamma_dt)
        g, jac = g_const + lin @ k, lin.copy()
        g[3:] += torque
        jac[3:, 3:] += block
        return g, jac, w

    k = np.zeros(6)
    g, jac, w = residual(k)
    if not np.isfinite(jac).all():  # before LAPACK, which would print its own error lines
        raise SingularStage("stage matrix is not finite (condition number inf)")
    sv = np.linalg.svd(jac, compute_uv=False)  # descending singular values
    if not (0.0 < sv[-1] and sv[0] <= 1e13 * sv[-1]):
        with np.errstate(all="ignore"):
            cond = sv[0] / sv[-1]
        raise SingularStage(f"stage matrix is singular (condition number {cond:.3e})")
    v_max, w_max = max(map(abs, u[:3])), max(map(abs, u[3:]))
    scale = max(1.0, *map(abs, forcing_6.tolist()), float(np.abs(comp).max()) * (v_max + w_max))
    for _ in range(25):
        g_list = g.tolist()
        if not all(map(math.isfinite, g_list)):
            raise NewtonDivergence("stage residual became non-finite")
        if max(map(abs, g_list)) <= 1e-12 * scale:
            return k, w
        try:
            step = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            raise SingularStage("stage Jacobian solve failed: Singular matrix") from None
        k = k + step
        g, jac, w = residual(k)
    raise NewtonDivergence(f"no convergence in 25 iterations (|G| = {np.abs(g).max():.3e})")


def dirk_step(
    state: RigidBodyState3D,
    inertia: BodyInertia,
    forcing_provider,
    tableau: DIRKTableau,
    dt: float,
    t: float = 0.0,
) -> RigidBodyState3D:
    """One DIRK step; forcing_provider(time) returns the PartialForcing at a
    stage time (freeze it to reproduce tensors held fixed over the step)."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    gdt = tableau.gamma * dt
    a, b, c = tableau.a, tableau.b, tableau.c
    # y = (x, v, omega, E) flattened; one row of stage slopes per stage
    y0 = np.concatenate([state.x, state.v, state.omega, state.E.ravel()])
    slopes, tensors = np.zeros((len(b), 18)), None
    for i in range(len(b)):
        forcing = forcing_provider(t + c[i] * dt)
        if forcing.tensors is not tensors:  # L needs only the (read-only) tensors: build it once
            tensors, lin = forcing.tensors, gdt * forcing.tensors.composite
            lin[:3, :3] += inertia.mass * _EYE3
            lin[3:, 3:] += inertia.A
        base = y0 + dt * (a[i, :i] @ slopes[:i])
        k, w = _solve_stage(inertia.A, forcing, lin, gdt, base[3:9])
        slopes[i, :3] = base[3:6] + gdt * k[:3]
        slopes[i, 3:9] = k
        slopes[i, 9:] = _axes_slope(w, base[9:].reshape(3, 3), gdt).ravel()
    y1 = y0 + dt * (b @ slopes)
    e1 = y1[9:].reshape(3, 3)
    if _drift(e1) > 1e-10:  # to the nearest orthogonal matrix: the polar factor U V^T of E = U S V^T
        u, _, vt = np.linalg.svd(e1)
        e1 = u @ vt
    return RigidBodyState3D(y1[:3], y1[3:6], y1[6:9], e1)


# -- surface state projection -------------------------------------------------


def project_surface_state(
    p_pred: float,
    v_pred: np.ndarray,
    rho_pred: float,
    z_pred: float,
    n: np.ndarray,
    v_body_local: np.ndarray,
    gamma: float,
):
    """Correct a predicted surface fluid state against the body motion:

        v = v_body_local
        p = p_pred - z_pred n.(v_pred - v_body_local)
        rho = rho_pred (p / p_pred)^(1/gamma)

    The density correction preserves the entropy function p / rho^gamma.
    """
    if not (p_pred > 0.0 and rho_pred > 0.0):
        raise ValueError("predicted pressure and density must be > 0")
    if not gamma > 1.0:
        raise ValueError(f"gamma must be > 1, got {gamma}")
    if z_pred < 0.0:
        raise ValueError(f"impedance must be >= 0, got {z_pred}")
    v_pred = np.asarray(v_pred, dtype=float)
    n = np.asarray(n, dtype=float)
    v_body_local = np.asarray(v_body_local, dtype=float)
    p = p_pred - z_pred * float(n @ (v_pred - v_body_local))
    if p <= 0.0:
        raise NonphysicalPressure(f"projected pressure {p} <= 0")
    rho = rho_pred * (p / p_pred) ** (1.0 / gamma)
    return p, v_body_local.copy(), rho
