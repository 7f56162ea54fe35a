"""Benchmark core: closed-loop passes over a workload's CLI tasks, the
end-to-end metrics (tracing off) and the per-layer metrics of a traced run.

Load model: one process, one caller, closed loop -- each task starts when
the previous one returns.  Every task goes through ``bodywave.cli.main``
in-process and writes its report to a scratch directory; every report is
parsed and checked after its pass, outside the timed region.  Between tasks
a fixed reference loop is timed, so that the gated pass time can be divided
by the host's speed (``Pass.wall_ref``).
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import os
import platform
import resource
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np
import scipy

from bodywave import cli

import floor
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 7
REF_LOOPS = 200_000  # iterations of the reference loop timed between tasks
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
FLOOR_TOLERANCE = 1e-14

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import bodywave, bodywave.cli; "
              "bodywave.cli.build_parser(); print('ready', flush=True)")

UNITS = {
    "setup_s": "s", "wall_ref": "ref", "wall_s": "s", "ref_ms": "ms",
    "task_p50_s": "s", "task_tail_s": "s",
    "cell_steps_per_s": "1/s", "peak_rss_mb": "MB", "fail_rate": "ratio",
    "err_v_body": "1", "growth_dev": "ratio", "ref_dev": "1",
    "schemes.calls": "count", "schemes.cell_steps": "count", "schemes.us_per_call": "us",
    "schemes.ns_per_cell_step": "ns", "schemes.floor_ratio": "ratio",
    "materials.convert_calls": "count", "materials.convert_ns_per_cell": "ns",
    "coupling.steps": "count", "coupling.us_per_step": "us", "coupling.self_us_per_step": "us",
    "exact.points": "count", "exact.ns_per_point": "ns",
    "stability.det_points": "count", "stability.ns_per_det_point": "ns",
    "stability.growth_runs": "count", "stability.growth_self_ms_per_run": "ms",
    "addedmass.nodes": "count", "addedmass.sample_ns_per_node": "ns",
    "addedmass.tensors_ns_per_node": "ns",
    "rigidbody3d.steps": "count", "rigidbody3d.us_per_step": "us",
    "harness.self_s": "s", "cli.self_ms_per_task": "ms",
    **{f"{layer}.share": "ratio" for layer in spans.LAYERS},
    "trace.overhead": "ratio",
    "floor.ns_per_cell_step": "ns", "floor.lw_ns_per_cell_step": "ns",
    "floor.upwind_ns_per_cell_step": "ns",
    "floor.lw_flops_per_cell_step_computed": "flop", "floor.lw_bytes_per_cell_step_computed": "B",
    "floor.upwind_flops_per_cell_step_computed": "flop",
    "floor.upwind_bytes_per_cell_step_computed": "B",
}


# -- one task, one pass ---------------------------------------------------------


def reference() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed right now.
    The VM's speed drifts by up to about 40 % over minutes; a task's latency
    divided by this time drifts much less."""
    t0 = perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i
    return perf_counter() - t0


def run_task(argv: list[str]) -> tuple[int | None, float, str]:
    """(exit code or None on a crash, latency in s, error text)."""
    out, err = io.StringIO(), io.StringIO()
    crash = ""
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(argv)  # looked up per call, so instrument() can wrap it
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing task is a failed task, not a failed run
            rc, crash = None, traceback.format_exc(limit=4)
        latency = perf_counter() - t0
    return rc, latency, crash or err.getvalue().strip()[-400:]


@dataclass
class Pass:
    wall: float  # sum of the task latencies
    latency: list[float]
    refs: list[float]  # reference times before the first task and after each task
    failures: dict[int, str]  # task index -> problem
    reports: list[bytes | None]

    @property
    def wall_ref(self) -> float:
        """Pass time in reference units: each task's latency over the mean of
        the reference times just before and just after it."""
        return sum(2.0 * dt / (before + after)
                   for dt, before, after in zip(self.latency, self.refs, self.refs[1:]))


def run_pass(tasks: list[workloads.Task], tracer: spans.Tracer | None = None) -> Pass:
    """Run the task list once, timing the reference before the first task
    and after each one, then check every report (untimed)."""
    for task in tasks:
        task.out.unlink(missing_ok=True)
    codes, latency, errors, refs = [], [], [], [reference()]
    for task in tasks:
        if tracer is not None:
            tracer.task += 1
        rc, dt, err = run_task(task.argv)
        refs.append(reference())
        codes.append(rc)
        latency.append(dt)
        errors.append(err)

    failures, reports = {}, []
    for i, task in enumerate(tasks):
        reports.append(task.out.read_bytes() if task.out.exists() else None)
        if codes[i] != 0:
            failures[i] = f"exit {codes[i]}: {errors[i]}"
            continue
        try:
            problems = workloads.check_report(task, workloads.parse_report(task.out))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"invalid report: {type(exc).__name__}: {exc}"]
        if problems:
            failures[i] = "; ".join(problems)
    for i, problem in workloads.check_pass(tasks).items():
        failures.setdefault(i, problem)
    return Pass(sum(latency), latency, refs, failures, reports)


def time_setup() -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    bodywave and built the CLI parser, i.e. until a first task could start."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed (exit {proc.returncode})")
    return ready


def tail(latency: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, samples): the highest percentile that still has
    TAIL_BEYOND samples above it; None when there are too few samples."""
    n = len(latency)
    if n <= TAIL_BEYOND:
        return None
    return sorted(latency)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


# -- measuring a workload -------------------------------------------------------


@dataclass
class Measurement:
    metrics: dict[str, float]
    notes: dict[str, str]
    attempted: int
    failures: list[str]  # failed tasks
    problems: list[str]  # run-level: floor mismatch, missing metric
    detail: dict
    tracer: spans.Tracer | None = None  # spans of the traced passes


def _work(totals: dict, *names: str, field: int = 0) -> float:
    return sum(totals.get(n, (0, 0, 0.0, 0.0))[field] for n in names)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def work_counts(totals: dict) -> dict[str, int]:
    """Amount of work in a pass; a seed must not change any of these."""
    return {
        "coupling.steps": int(_work(totals, "coupling.step")),
        "schemes.cell_steps": int(_work(totals, "schemes.upwind", "schemes.lax_wendroff", field=1)),
        "stability.det_points": int(_work(totals, "stability.determinant", field=1)),
        "addedmass.nodes": int(_work(totals, "addedmass.sample", field=1)),
        "rigidbody3d.steps": int(_work(totals, "rigidbody3d.dirk_step")),
    }


def layer_metrics(totals: dict, passes: int, traced_wall: float, floor_ns: dict) -> dict:
    """Per-layer figures per traced pass from the tracer's per-name totals
    [calls, units, duration, self time]."""
    t = {name: [v / passes for v in vals] for name, vals in totals.items()}
    calls, units, dur, own = (partial(_work, t, field=f) for f in range(4))
    self_ = {layer: sum(v[3] for k, v in t.items() if k.split(".")[0] == layer) for layer in spans.LAYERS}
    steppers = ("schemes.upwind", "schemes.lax_wendroff")
    conversions = ("materials.to_characteristics", "materials.from_characteristics")
    cells_lw, cells_up = units("schemes.lax_wendroff"), units("schemes.upwind")
    floor_s = (cells_lw * floor_ns["lax_wendroff"] + cells_up * floor_ns["upwind"]) * 1e-9
    exact_points = units("exact.field", "exact.body_velocity")
    m = {
        "schemes.calls": calls(*steppers),
        "schemes.cell_steps": units(*steppers),
        "schemes.us_per_call": _ratio(self_["schemes"], calls(*steppers), 1e6),
        "schemes.ns_per_cell_step": _ratio(self_["schemes"], units(*steppers), 1e9),
        "schemes.floor_ratio": _ratio(self_["schemes"], floor_s),
        "materials.convert_calls": calls(*conversions),
        "materials.convert_ns_per_cell": _ratio(self_["materials"], units(*conversions), 1e9),
        "coupling.steps": calls("coupling.step"),
        "coupling.us_per_step": _ratio(dur("coupling.step"), calls("coupling.step"), 1e6),
        "coupling.self_us_per_step": _ratio(self_["coupling"], calls("coupling.step"), 1e6),
        "exact.points": exact_points,
        "exact.ns_per_point": _ratio(self_["exact"], exact_points, 1e9),
        "stability.det_points": units("stability.determinant"),
        "stability.ns_per_det_point": _ratio(dur("stability.count_modes"),
                                             units("stability.determinant"), 1e9),
        "stability.growth_runs": calls("stability.growth"),
        "stability.growth_self_ms_per_run": _ratio(own("stability.growth"),
                                                   calls("stability.growth"), 1e3),
        "addedmass.nodes": units("addedmass.sample"),
        "addedmass.sample_ns_per_node": _ratio(own("addedmass.sample"),
                                               units("addedmass.sample"), 1e9),
        "addedmass.tensors_ns_per_node": _ratio(own("addedmass.tensors"),
                                                units("addedmass.tensors"), 1e9),
        "rigidbody3d.steps": calls("rigidbody3d.dirk_step"),
        "rigidbody3d.us_per_step": _ratio(dur("rigidbody3d.dirk_step"),
                                          calls("rigidbody3d.dirk_step"), 1e6),
        "harness.self_s": self_["harness"],
        "cli.self_ms_per_task": _ratio(self_["cli"], calls("cli.main"), 1e3),
        "floor.ns_per_cell_step": _ratio(floor_s, cells_lw + cells_up, 1e9) if cells_lw + cells_up
        else 0.5 * (floor_ns["lax_wendroff"] + floor_ns["upwind"]),
        "floor.lw_ns_per_cell_step": floor_ns["lax_wendroff"],
        "floor.upwind_ns_per_cell_step": floor_ns["upwind"],
    }
    for scheme, key in (("lax_wendroff", "lw"), ("upwind", "upwind")):
        m[f"floor.{key}_flops_per_cell_step_computed"] = floor.COMPUTED[scheme]["flops"]
        m[f"floor.{key}_bytes_per_cell_step_computed"] = floor.COMPUTED[scheme]["bytes"]
    for layer in spans.LAYERS:
        m[f"{layer}.share"] = _ratio(self_[layer], traced_wall)
    return m


def measure(tasks: list[workloads.Task], seconds: float, trace: bool,
            setup_repeats: int = SETUP_REPEATS) -> Measurement:
    """Warm up, then run whole passes until the next one would end after
    `seconds`.  With trace, passes alternate untraced and traced.  Set-up is
    timed between passes, spread over the run so that its median sees the
    same machine as the passes; that time is not counted in `seconds`."""
    setup = [time_setup()]

    # The warm-up pass fills caches and finishes lazy set-up; it runs under a
    # counting tracer (no spans kept) to get the pass's work counts.
    counter = spans.Tracer()
    with spans.instrument(counter):
        warm = run_pass(tasks, counter)
    tracer = spans.Tracer(record=True) if trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    started, setup_time = perf_counter(), 0.0
    while True:
        pass_start = perf_counter()
        if trace and len(traced) < len(plain):
            with spans.instrument(tracer):
                p = run_pass(tasks, tracer)
            traced.append(p)
        else:
            p = run_pass(tasks)
            plain.append(p)
        for i, report in enumerate(p.reports):
            if i not in p.failures and report != warm.reports[i]:
                p.failures[i] = "report differs from the warm-up pass's report"
        last = perf_counter() - pass_start
        elapsed = perf_counter() - started - setup_time
        done = elapsed + last > seconds and (traced or not trace)
        while len(setup) < setup_repeats and (done or len(setup) * seconds < setup_repeats * elapsed):
            t0 = perf_counter()
            setup.append(time_setup())
            setup_time += perf_counter() - t0
        if done:
            break

    passes = [warm] + plain + traced
    failures = [f"{tasks[i].label}: {why}" for p in passes for i, why in sorted(p.failures.items())]
    attempted = len(tasks) * len(passes)
    latency = [x for p in plain for x in p.latency]
    wall = median(p.wall for p in plain)
    wall_ref = median(p.wall_ref for p in plain)
    refs = [r for p in plain for r in p.refs]
    counts = work_counts(counter.totals)
    metrics = {
        "setup_s": median(setup),
        "wall_ref": wall_ref,
        "wall_s": wall,
        "ref_ms": median(refs) * 1e3,
        "task_p50_s": median(latency),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_rate": len(failures) / attempted,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "wall_ref": f"median of {len(plain)} untraced passes, task latencies over the reference",
        "wall_s": f"median of {len(plain)} untraced passes",
        "ref_ms": f"median of {len(refs)} reference loops of {REF_LOOPS} iterations",
        "task_p50_s": f"median of {len(latency)} tasks",
        "fail_rate": f"{len(failures)} of {attempted} tasks",
    }
    tail_stat = tail(latency)
    if tail_stat is None:
        notes["task_tail_s"] = f"n/a: {len(latency)} tasks, needs more than {TAIL_BEYOND}"
    else:
        metrics["task_tail_s"] = tail_stat[0]
        notes["task_tail_s"] = f"p{tail_stat[1]:.1f} of {tail_stat[2]} tasks, {TAIL_BEYOND} beyond it"
    if counts["schemes.cell_steps"]:
        metrics["cell_steps_per_s"] = counts["schemes.cell_steps"] / wall
        notes["cell_steps_per_s"] = f"{counts['schemes.cell_steps']} cell-steps per pass"
    for key in ("err_v_body", "growth_dev", "ref_dev"):
        values = [t.accuracy[key] for t in tasks if key in t.accuracy]
        if values:
            metrics[key] = max(values)
    problems: list[str] = []
    detail = {
        "work_counts": counts,
        "pass_wall_s": {"warm_up": warm.wall, "untraced": [p.wall for p in plain],
                        "traced": [p.wall for p in traced]},
        "pass_wall_ref": {"untraced": [p.wall_ref for p in plain],
                          "traced": [p.wall_ref for p in traced]},
        "ref_s": {"untraced": [p.refs for p in plain], "traced": [p.refs for p in traced]},
        "task_latency_s": {t.label: [p.latency[i] for p in plain] for i, t in enumerate(tasks)},
        "setup_s": setup,
        "first_order_field_rates": {
            t.label: t.accuracy["first_order_field_rates"] for t in tasks
            if "first_order_field_rates" in t.accuracy},
        "first_order_field_window_reported_not_gated": list(workloads.FIRST_ORDER_FIELD_WINDOW),
    }
    if trace:
        floor_ns = floor.measure()
        floor_err = floor.check()
        detail["floor_check_rel_diff"] = floor_err
        problems += [f"numpy floor differs from {k} by {v:.2e} relative"
                     for k, v in floor_err.items() if not v <= FLOOR_TOLERANCE]
        traced_wall = sum(p.wall for p in traced) / len(traced)
        metrics.update(layer_metrics(tracer.totals, len(traced), traced_wall, floor_ns))
        metrics["trace.overhead"] = median(p.wall_ref for p in traced) / wall_ref - 1.0
        notes["trace.overhead"] = f"{len(traced)} traced vs {len(plain)} untraced passes"
    return Measurement(metrics, notes, attempted, failures, problems, detail, tracer)


# -- reporting ------------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def provenance(workload: str, seed: int, seconds: float, trace: bool, started: str) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / name) for name in ("level", "type", "size"))
        if level and size:
            caches[f"L{level.strip()} {(kind or '').strip()}".strip()] = size.strip()
    sha = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            sha = git.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "load": "closed loop, 1 caller, 1 process, in-process bodywave.cli.main",
        "nproc": os.cpu_count(), "cpu_model": model, "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_sha": sha, "started_utc": started,
        "ended_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def result_line(m: Measurement, trace: bool) -> dict:
    """The final stdout line: exactly BENCHMARK.json's end_to_end metrics
    (per_layer with trace); a metric this workload lacks makes it incorrect."""
    names = [spec["name"] for spec in SPEC["per_layer" if trace else "end_to_end"]]
    m.problems += [f"metric {n} not measured" for n in names if n not in m.metrics]
    return {
        "correct": not (m.failures or m.problems),
        "attempted": m.attempted,
        "failed": len(m.failures),
        "metrics": {n: {"value": m.metrics.get(n, 0.0), "unit": UNITS[n]} for n in names},
    }


def report(workload: str, seed: int, seconds: float, trace: bool, m: Measurement,
           started: str) -> dict:
    """Print every metric by name with its unit, write the result file (and
    the spans of a traced run), and return the final result line."""
    print(f"perfbench {workload} seed={seed} trace={int(trace)}: "
          f"{len(m.detail['pass_wall_s']['untraced'])} untraced + "
          f"{len(m.detail['pass_wall_s']['traced'])} traced passes, {m.attempted} tasks")
    for name, value in m.metrics.items():
        print(f"  {name:42s} {value:>14.6g} {UNITS[name]:6s} {m.notes.get(name, '')}")
    for name in ("task_tail_s", "cell_steps_per_s", "err_v_body", "growth_dev", "ref_dev"):
        if name not in m.metrics:
            print(f"  {name:42s} {'n/a':>14s} {UNITS[name]:6s} {m.notes.get(name, 'not on this workload')}")
    for label, rates in m.detail["first_order_field_rates"].items():
        lo, hi = workloads.FIRST_ORDER_FIELD_WINDOW
        shown = ", ".join(f"{k}={v:.3f}" for k, v in rates.items())
        print(f"  reported, not gated: {label} field rates {shown} vs window [{lo}, {hi}]")
    line = result_line(m, trace)
    for failure in m.failures + m.problems:
        print(f"  FAILED {failure}")

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if m.tracer is not None:
        m.tracer.save(OUT / f"{stem}-spans.npz")
    (OUT / f"{stem}.json").write_text(json.dumps({
        "provenance": provenance(workload, seed, seconds, trace, started),
        "metrics": {k: {"value": v, "unit": UNITS[k], "note": m.notes.get(k, "")}
                    for k, v in m.metrics.items()},
        "failures": m.failures,
        "problems": m.problems,
        "detail": m.detail,
        "result": line,
    }, indent=1))
    return line


# -- entry ----------------------------------------------------------------------


def self_check(names, seeds) -> int:
    """One counted pass per seed and workload: the work counts must match
    and no task may fail."""
    ok = True
    for name in names:
        counts = []
        for seed in seeds:
            workdir = OUT / f"work-{os.getpid()}"
            try:
                tasks = workloads.build(name, seed, workdir)
                counter = spans.Tracer()
                with spans.instrument(counter):
                    p = run_pass(tasks, counter)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            counts.append(work_counts(counter.totals))
            print(f"{name} seed={seed}: {counts[-1]} failed={len(p.failures)}")
            ok = ok and not p.failures
        ok = ok and all(c == counts[0] for c in counts)
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def run_all(args) -> int:
    """Each workload in a fresh process; the last line merges their results
    under '<workload>.<metric>'."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        line = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and line["correct"]
        merged["attempted"] += line["attempted"]
        merged["failed"] += line["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description="bodywave benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", type=int, nargs=2, metavar="SEED", dest="self_check",
                        help="compare the work counts of two seeds instead of timing")
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.self_check:
        return self_check(names, args.self_check)
    if args.workload == "all":
        return run_all(args)

    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    workdir = OUT / f"work-{os.getpid()}"
    try:
        tasks = workloads.build(args.workload, args.seed, workdir)
        m = measure(tasks, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = report(args.workload, args.seed, args.seconds, bool(args.trace), m, started)
    print(json.dumps(line))
    return 0
