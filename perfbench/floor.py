"""Plain-numpy floor for the interior stencils.

Upwind and Lax-Wendroff on preallocated characteristic arrays (right-side
layout: ghost at index 0, cells 1..n, one far pad cell at n+1 that copies
cell n), with slices and in-place updates only: no field objects, no
v/sigma conversion, no gathers.  It is what `schemes` would cost per
cell-step if Python overhead were gone.  `check` proves it solves the same
problem as `upwind_step` and `lax_wendroff_step`.

Flops and bytes per cell-step are computed from the array operations below
(bytes = operands read + results written, 8 B each), not measured.  At
n = 12,800 the working set is about 0.4 MB, inside L2, so no bandwidth
claim is made from these figures.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

from bodywave import FluidField1D, FluidMaterial, Grid1D, lax_wendroff_step, upwind_step

N_CELLS = 12_800
LAM = 0.8
STEPS, REPEATS = 200, 9  # per timing sample; median over REPEATS samples

# per cell-step, both characteristic families
COMPUTED = {
    "upwind": {"flops": 6, "bytes": 2 * (24 + 16 + 24)},           # sub, imul, iadd
    "lax_wendroff": {"flops": 10, "bytes": 2 * (3 * 16 + 2 * 24)},  # 3 mul, 2 iadd
}


def _upwind(a, b, tmp, lam):
    n = a.size - 2
    t = tmp[:n]
    np.subtract(a[1:n + 1], a[0:n], out=t)      # a moves +x: west difference
    t *= lam
    a[1:n + 1] -= t
    b[n + 1] = b[n]
    np.subtract(b[2:n + 2], b[1:n + 1], out=t)  # b moves -x: east difference
    t *= lam
    b[1:n + 1] += t


def _lw_family(x, out, tmp, cw, c0, ce):
    n = x.size - 2
    x[n + 1] = x[n]
    o, t = out[1:n + 1], tmp[:n]
    np.multiply(x[0:n], cw, out=o)
    np.multiply(x[1:n + 1], c0, out=t)
    o += t
    np.multiply(x[2:n + 2], ce, out=t)
    o += t
    out[0] = x[0]


def _lw(a, b, a2, b2, tmp, lam):
    """One Lax-Wendroff step from (a, b) into (a2, b2)."""
    half, half2 = 0.5 * lam, 0.5 * lam * lam
    _lw_family(a, a2, tmp, half + half2, 1.0 - lam * lam, half2 - half)
    _lw_family(b, b2, tmp, half2 - half, 1.0 - lam * lam, half + half2)


def _padded(a):
    out = np.empty(a.size + 1)
    out[:-1] = a
    out[-1] = a[-1]
    return out


def check() -> dict[str, float]:
    """Largest relative difference between one floor step and one library
    step on the same random right-side field, per scheme."""
    n = N_CELLS
    rng = np.random.default_rng(0)
    mat = FluidMaterial(1.0, 3.0 ** 0.5)
    grid = Grid1D("right", n, 1.0 / n)
    fld = FluidField1D(grid, rng.standard_normal(n + 1), rng.standard_normal(n + 1))
    dt = LAM * grid.dx / mat.c
    a0, b0 = fld.to_characteristics(mat)
    tmp = np.empty(n)
    out = {}
    for name, lib in (("upwind", upwind_step), ("lax_wendroff", lax_wendroff_step)):
        a, b = _padded(a0), _padded(b0)
        if name == "upwind":
            _upwind(a, b, tmp, LAM)
        else:
            a2, b2 = np.empty_like(a), np.empty_like(b)
            _lw(a, b, a2, b2, tmp, LAM)
            a, b = a2, b2
        ref_a, ref_b = lib(fld, mat, dt).to_characteristics(mat)
        scale = max(np.max(np.abs(ref_a)), np.max(np.abs(ref_b)))
        diff = max(np.max(np.abs(a[1:n + 1] - ref_a[1:])), np.max(np.abs(b[1:n + 1] - ref_b[1:])))
        out[name] = float(diff / scale)
    return out


def measure() -> dict[str, float]:
    """Median ns per cell-step (one cell of one side, both families)."""
    n, steps = N_CELLS, STEPS
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal(n + 2), rng.standard_normal(n + 2)
    a2, b2, tmp = np.empty_like(a), np.empty_like(b), np.empty(n)
    times = {"upwind": [], "lax_wendroff": []}
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(steps):
            _upwind(a, b, tmp, LAM)
        times["upwind"].append(perf_counter() - t0)
        t0 = perf_counter()
        for _ in range(steps // 2):
            _lw(a, b, a2, b2, tmp, LAM)
            _lw(a2, b2, a, b, tmp, LAM)
        times["lax_wendroff"].append(perf_counter() - t0)
    return {k: median(v) / (steps * n) * 1e9 for k, v in times.items()}
