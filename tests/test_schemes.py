"""Interior steppers checked against an explicit 2x2 matrix-form oracle.

The oracle applies  u' = u + dt (R L- Rinv D- u + R L+ Rinv D+ u)  (upwind)
and  u' = u + (dt/2) C D0 u + (dt^2/2) C^2 D+D- u  (Lax-Wendroff) cell by
cell in primitive variables, with C = [[0, 1/rho], [kappa, 0]].  A second,
bitwise oracle is the broadcasting form of the characteristic kernels,
which the flat per-element kernels must reproduce exactly.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bodywave.materials import FluidMaterial, Grid1D, FluidField1D
from bodywave.schemes import Characteristics, CflViolation, lax_wendroff_step, upwind_step

RNG = np.random.default_rng(20260814)


def _random_field(side, n=12, dx=0.05):
    g = Grid1D(side, n, dx)
    return FluidField1D(g, RNG.normal(size=n + 1), RNG.normal(size=n + 1))


def _padded(field):
    """State as (n+3, 2) array with a virtual far cell, a copy of the last,
    appended physically."""
    u = np.column_stack([field.v, field.sigma])
    far = u[::field.grid.outward][-1]
    if field.grid.side == "left":
        return np.vstack([far, u]), 1
    return np.vstack([u, far]), 0


def _oracle_step(field, mat, dt, scheme):
    c, rho = mat.c, mat.rho
    C = np.array([[0.0, 1.0 / rho], [mat.kappa, 0.0]])
    R = c * np.array([[-1.0, 1.0], [mat.z, mat.z]])
    Rinv = (1.0 / (2.0 * c * mat.z)) * np.array([[-mat.z, 1.0], [mat.z, 1.0]])
    Lm = np.diag([-c, 0.0])
    Lp = np.diag([0.0, c])
    dx = field.grid.dx
    upad, shift = _padded(field)
    out = np.column_stack([field.v, field.sigma])
    interior = field.grid.interior
    for j in range(*interior.indices(field.grid.n_points)):
        u = upad[j + shift]
        uw = upad[j + shift - 1]
        ue = upad[j + shift + 1]
        if scheme == "upwind":
            out[j] = u + dt / dx * (R @ Lm @ Rinv @ (u - uw) + R @ Lp @ Rinv @ (ue - u))
        else:
            out[j] = (
                u
                + dt / (2 * dx) * (C @ (ue - uw))
                + dt**2 / (2 * dx**2) * (C @ C @ (ue - 2 * u + uw))
            )
    return out[:, 0], out[:, 1]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize(
    "stepper,name", [(upwind_step, "upwind"), (lax_wendroff_step, "lw")]
)
def test_matches_matrix_oracle(side, stepper, name):
    mat = FluidMaterial(1.3, 1.7)
    f = _random_field(side)
    dt = 0.8 * f.grid.dx / mat.c
    got = stepper(f, mat, dt)
    v_ref, s_ref = _oracle_step(f, mat, dt, "upwind" if name == "upwind" else "lw")
    interior = f.grid.interior
    assert np.allclose(got.v[interior], v_ref[interior], atol=1e-13, rtol=1e-13)
    assert np.allclose(got.sigma[interior], s_ref[interior], atol=1e-13, rtol=1e-13)
    # ghost passes through untouched
    g = f.grid.ghost_index
    assert got.v[g] == f.v[g] and got.sigma[g] == f.sigma[g]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("stepper", [upwind_step, lax_wendroff_step])
def test_unit_courant_is_exact_shift(side, stepper):
    mat = FluidMaterial(1.0, 2.0)
    f = _random_field(side, n=10)
    a, b = f.to_characteristics(mat)
    dt = f.grid.dx / mat.c  # lam = 1
    g2 = stepper(f, mat, dt)
    a2, b2 = g2.to_characteristics(mat)
    n = f.grid.n_cells
    if side == "left":
        # a moves +x (toward the ghost), b moves -x (toward the far end)
        assert np.allclose(a2[1:n], a[0 : n - 1], atol=1e-14)
        assert np.allclose(b2[0:n], b[1 : n + 1], atol=1e-14)
        assert np.isclose(a2[0], a[0], atol=1e-14)  # the far end extrapolates
    else:
        assert np.allclose(a2[1:], a[:-1], atol=1e-14)
        assert np.allclose(b2[1:n], b[2 : n + 1], atol=1e-14)
        assert np.isclose(b2[n], b[n], atol=1e-14)


@pytest.mark.parametrize("stepper", [upwind_step, lax_wendroff_step])
def test_cfl_violation_raised(stepper):
    mat = FluidMaterial(1.0, 1.0)
    f = _random_field("left")
    with pytest.raises(CflViolation):
        stepper(f, mat, 1.0000001 * f.grid.dx / mat.c)
    with pytest.raises(ValueError):
        stepper(f, mat, -0.1)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("stepper", [upwind_step, lax_wendroff_step])
def test_constant_state_is_fixed_point(side, stepper):
    mat = FluidMaterial(2.0, 0.7)
    g = Grid1D(side, 8, 0.1)
    f = FluidField1D(g, np.full(9, 1.25), np.full(9, -0.5))
    out = stepper(f, mat, 0.5 * g.dx / mat.c)
    assert np.allclose(out.v, 1.25, atol=1e-15)
    assert np.allclose(out.sigma, -0.5, atol=1e-15)


@pytest.mark.parametrize("stepper", [upwind_step, lax_wendroff_step])
def test_stacked_records_step_like_each_alone(stepper):
    """A stack of records with different steps and materials steps each
    member bit-identically to the member stepped on its own."""
    slow = (FluidMaterial(1.0, 1.3), FluidMaterial(2.0, 0.7))
    fast = (FluidMaterial(0.8, 2.1), FluidMaterial(1.5, 0.4))

    specs = [((_random_field("left"), _random_field("right")), mats, dt)
             for dt, mats in ((0.01, slow), (0.02, fast), (0.035, slow))]
    members, alone = [Characteristics(*spec) for spec in specs], [Characteristics(*spec) for spec in specs]
    for a, m in zip(alone, members):  # twins built independently, given each member's state
        a.x[...] = m.x
    stack = Characteristics.stack(members)
    for _ in range(5):
        stepper(stack)
        for a in alone:
            stepper(a)
    for x, a in zip(stack.x, alone):
        assert np.array_equal(x, a.x)


@pytest.mark.parametrize("stepper", [upwind_step, lax_wendroff_step])
def test_a_part_of_a_stack_steps_its_members_in_place(stepper):
    """`part(1, 3)` of a three-member stack, each member at its own step and
    materials, steps members 1 and 2 in the stack's own buffer exactly as
    each steps alone, with its own coefficients, and leaves member 0 as it was."""
    slow = (FluidMaterial(1.0, 1.3), FluidMaterial(2.0, 0.7))
    fast = (FluidMaterial(0.8, 2.1), FluidMaterial(1.5, 0.4))
    specs = [((_random_field("left"), _random_field("right")), mats, dt)
             for dt, mats in ((0.01, slow), (0.02, fast), (0.035, slow))]
    members, alone = [Characteristics(*spec) for spec in specs], [Characteristics(*spec) for spec in specs]
    for a, m in zip(alone, members):
        a.x[...] = m.x
    stack = Characteristics.stack(members)
    part, first = stack.part(1, 3), stack.x[0].copy()
    for _ in range(5):
        stepper(part)
        for a in alone[1:]:
            stepper(a)
    assert np.array_equal(stack.x[0], first)
    for x, a in zip(stack.x[1:], alone[1:]):
        assert np.array_equal(x, a.x)


def _broadcast_step(x, lam, scheme):
    """One step of x, shape (..., sides, 2, n + 2), in place by the
    broadcasting kernels, lam of shape (..., sides, 1).  The far end folds
    into cell n: upwind's w there adds lam 0 times its difference to the far
    column, and Lax-Wendroff's cell n takes (c0 + ce) x_n and 0 times the far
    column.  Ghost and far columns are left as they are."""
    t, u = np.empty((2,) + x[..., 1:-1].shape)
    if scheme == "upwind":
        t, lam_w = t[..., 0, :], np.repeat(lam, x.shape[-1] - 2, axis=-1)
        lam_w[..., -1] = 0.0
        np.subtract(x[..., 0, 1:-1], x[..., 0, :-2], out=t)
        t *= lam
        x[..., 0, 1:-1] -= t
        np.subtract(x[..., 1, 2:], x[..., 1, 1:-1], out=t)
        t *= lam_w
        x[..., 1, 1:-1] += t
        return
    half, half2, sign = 0.5 * lam[..., None], 0.5 * lam[..., None] * lam[..., None], np.array([[1.0], [-1.0]])
    cw, c0, ce = np.broadcast_arrays(half2 + sign * half, 1.0 - lam[..., None] ** 2, half2 - sign * half, t)[:3]
    c0, ce = c0.copy(), ce.copy()
    c0[..., -1] += ce[..., -1]
    ce[..., -1] = 0.0
    np.multiply(x[..., :-2], cw, out=t)
    np.multiply(x[..., 1:-1], c0, out=u)
    t += u
    np.multiply(x[..., 2:], ce, out=u)
    np.add(t, u, out=x[..., 1:-1])


@given(n=st.integers(3, 64), members=st.lists(st.tuples(
    st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(1e-3, 1.0)), min_size=1, max_size=4),
    seed=st.integers(0, 2**31))
@settings(max_examples=60, derandomize=True, deadline=None)
@example(n=3, members=[(0.9, 0.3, 0.25)], seed=7)  # the zeroed lam columns of w are adjacent
@example(n=5, members=[(1.0, 1.0, 0.5), (0.05, 1.0, 1e-3), (1.0, 0.6, 1.0), (0.4, 0.05, 0.1)], seed=11)
def test_flat_kernels_equal_the_broadcasting_kernels_bitwise(n, members, seed):
    """Stacks of 1-4 records (per-side c, own dt with lam <= 1) and one
    record alone step exactly as the broadcasting kernels step them, over
    the whole array: ghost and far columns included."""
    rng, dx = np.random.default_rng(seed), 1.0 / n
    records, args = [], []
    for lam_l, lam_r, dt in members:
        mats = (FluidMaterial(1.3, lam_l * dx / dt), FluidMaterial(0.7, lam_r * dx / dt))
        args.append(((_random_field("left", n, dx), _random_field("right", n, dx)), mats, dt))
        ch = Characteristics(*args[-1])
        ch.x[:] = rng.standard_normal(ch.x.shape)  # ghosts and far cells too
        records.append(ch)
    lam = np.array([[[m.c * dt / dx] for m in ch.mats] for ch, (_, _, dt) in zip(records, members)])
    for stepper, scheme in ((upwind_step, "upwind"), (lax_wendroff_step, "lw")):
        stack, alone = Characteristics.stack(records), Characteristics(*args[0])  # the first's twin
        alone.x[...] = records[0].x
        want, want_alone = stack.x.copy(), alone.x.copy()
        for _ in range(4):
            stepper(stack)
            stepper(alone)
            _broadcast_step(want, lam, scheme)
            _broadcast_step(want_alone, lam[0], scheme)
        assert np.array_equal(stack.x, want) and np.array_equal(alone.x, want_alone), scheme


@pytest.mark.parametrize("stepper", [upwind_step, lax_wendroff_step])
def test_the_far_column_is_inert(stepper):
    """A record starts with zero far columns.  One whose far columns hold
    arbitrary finite values steps its ghosts and interiors bit-identically to
    a zero-padded twin, single and stacked, and both keep their far values
    (+0 for the twin): the far end lives in cell n's coefficients."""
    mats, fields = (FluidMaterial(1.0, 1.3), FluidMaterial(2.0, 0.7)), (_random_field("left"), _random_field("right"))
    junk, twin = Characteristics(fields, mats, 0.02), Characteristics(fields, mats, 0.02)
    assert np.array_equal(twin.x[..., -1], np.zeros((2, 2)))
    far = 1e3 * RNG.standard_normal((2, 2))
    junk.x[..., -1] = far
    for pair in ((junk, twin), (Characteristics.stack([junk, junk]), Characteristics.stack([twin, twin]))):
        for _ in range(5):
            for record in pair:
                stepper(record)
        (a, b), pads = pair, np.broadcast_to(far, pair[0].x.shape[:-1])
        assert np.array_equal(a.x[..., :-1], b.x[..., :-1])
        assert np.array_equal(a.x[..., -1], pads)
        assert np.all(b.x[..., -1] == 0.0) and not np.any(np.signbit(b.x[..., -1]))


@pytest.mark.parametrize("stepper", [upwind_step, lax_wendroff_step])
def test_a_non_finite_ghost_stays_in_its_member(stepper):
    """Stacked around a member whose four ghosts are inf, a finite member steps
    bit-identically to itself alone and stays finite: a kernel writes each
    member from that member's own columns."""
    mats, fields = (FluidMaterial(1.0, 1.3), FluidMaterial(2.0, 0.7)), (_random_field("left"), _random_field("right"))
    alone, bad = Characteristics(fields, mats, 0.02), Characteristics(fields, mats, 0.02)
    bad.x[..., 0] = np.inf
    stack = Characteristics.stack([alone, bad, alone])
    with np.errstate(invalid="ignore"):  # inf - inf in the member with inf ghosts
        for _ in range(5):
            stepper(stack)
            stepper(alone)
    assert not np.all(np.isfinite(stack.x[1]))
    assert np.all(np.isfinite(alone.x))
    assert np.array_equal(stack.x[0], alone.x) and np.array_equal(stack.x[2], alone.x)


def test_a_records_state_cannot_be_rebound():
    """x is read-only, for a record and a stack alike: the flat views that
    steppers and couplers use are built from it once, so a rebound x would
    leave them stale.  Writing into x reaches them."""
    mats = (FluidMaterial(1.0, 1.3), FluidMaterial(2.0, 0.7))
    ch = Characteristics((_random_field("left"), _random_field("right")), mats, 0.01)
    for record in (ch, Characteristics.stack([ch, ch])):
        with pytest.raises(AttributeError):
            record.x = record.x.copy()
        record.x[...] = 0.5
        assert np.all(record.flat == 0.5) and np.all(record.x[..., 1:-1] == 0.5)


@pytest.mark.parametrize("stepper", [upwind_step, lax_wendroff_step])
def test_a_kernel_writes_a_single_record_in_contiguous_runs(stepper):
    """Every array that a kernel's ufunc calls write on one record is
    C-contiguous: a strided write over the interior columns costs about
    twice a flat one.  Every array the record holds is viewed as a subclass
    that logs the outputs of each ufunc call it enters."""
    writes = []

    class Logged(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
            writes.extend(out)
            plain = [a.view(np.ndarray) if isinstance(a, np.ndarray) else a for a in (*inputs, *out)]
            return getattr(ufunc, method)(*plain[:len(inputs)], out=tuple(plain[len(inputs):]), **kwargs)

    def logged(value):
        if isinstance(value, np.ndarray):
            return value.view(Logged)
        return tuple(map(logged, value)) if isinstance(value, tuple) else value

    mats = (FluidMaterial(1.0, 1.3), FluidMaterial(2.0, 0.7))
    ch = Characteristics((_random_field("left"), _random_field("right")), mats, 0.01)
    want = ch.x.copy()
    vars(ch).update({name: logged(value) for name, value in vars(ch).items()})
    stepper(ch)
    _broadcast_step(want, np.array([[m.c * 0.01 / 0.05] for m in mats]), "upwind" if stepper is upwind_step else "lw")
    assert np.array_equal(ch.x, want)  # the logged record still steps
    assert writes and all(w.flags.c_contiguous for w in writes), [w.shape for w in writes]
