"""Tests of the benchmark itself: reports are identical with tracing on and
off, the gated pass time cancels the host's speed, failed tasks are counted
rather than raised, every metric is printed with its unit, a seed changes
inputs but not work, the numpy floor solves the library's problem, and the
benchmark refuses to run without sources."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import floor
import spans
import workloads


@pytest.fixture(autouse=True)
def _scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path / "out")


def _task(tmp_path, label, argv, kind="none", suffix=".json"):
    out = tmp_path / f"{label.replace(' ', '_')}{suffix}"
    return workloads.Task(label, argv + ["--out", str(out)], out, kind)


def _small_tasks(tmp_path):
    return [
        _task(tmp_path, "converge", ["converge", "--cells", "20", "--levels", "2", "--tfinal", "0.1"]),
        _task(tmp_path, "simulate second", ["simulate", "--scheme", "second", "--mass", "1e-06",
                                             "--cells", "40", "--tfinal", "0.1"]),
        _task(tmp_path, "simulate first", ["simulate", "--scheme", "first", "--mass", "1e-06",
                                            "--cells", "40", "--tfinal", "0.1"]),
        _task(tmp_path, "addedmass", ["addedmass", "--shape", "ellipse", "--resolution", "512"],
              "addedmass", ".csv"),
        _task(tmp_path, "rb3d", ["rb3d", "--mass", "0.5"], "rb3d"),
    ]


def test_traced_and_untraced_runs_write_identical_reports(tmp_path):
    from bodywave import cli, harness

    tasks = _small_tasks(tmp_path)
    plain = bench.run_pass(tasks)
    tracer = spans.Tracer(record=True)
    with spans.instrument(tracer):
        traced = bench.run_pass(tasks, tracer)
    assert plain.failures == {} and traced.failures == {}
    assert all(plain.reports) and plain.reports == traced.reports
    assert tracer.totals["cli.main"][0] == len(tasks)
    assert tracer.totals["schemes.lax_wendroff"][1] > 0
    assert len(tracer.cols["name"]) == sum(t[0] for t in tracer.totals.values())
    # every wrapper is gone again
    assert cli.main.__module__ == "bodywave.cli"
    assert harness.dirk_step.__module__ == "bodywave.rigidbody3d"


def test_wall_ref_divides_each_task_by_the_reference_around_it(tmp_path):
    p = bench.Pass(wall=3.0, latency=[1.0, 2.0], refs=[0.01, 0.03, 0.02], failures={}, reports=[])
    assert p.wall_ref == pytest.approx(1.0 / 0.02 + 2.0 / 0.025)
    # a host that runs everything twice as slowly leaves wall_ref unchanged
    slow = bench.Pass(wall=6.0, latency=[2.0, 4.0], refs=[0.02, 0.06, 0.04], failures={}, reports=[])
    assert slow.wall_ref == pytest.approx(p.wall_ref)

    tasks = _small_tasks(tmp_path)[:2]
    run = bench.run_pass(tasks)
    assert len(run.refs) == len(tasks) + 1 and all(r > 0 for r in run.refs)
    assert run.wall == pytest.approx(sum(run.latency))


def test_failed_tasks_count_in_fail_rate_and_do_not_stop_the_run(tmp_path):
    tasks = [
        _task(tmp_path, "bad argv", ["simulate", "--cells", "many"]),
        _task(tmp_path, "massless traditional", ["simulate", "--coupling", "traditional", "--mass",
                                                 "0", "--cells", "20", "--tfinal", "0.05"], "simulate"),
        _task(tmp_path, "rb3d", ["rb3d", "--mass", "0.5"], "rb3d"),
    ]
    p = bench.run_pass(tasks)
    assert sorted(p.failures) == [0, 1]
    assert p.failures[0].startswith("exit 2") and p.failures[1].startswith("exit 3")

    m = bench.measure(tasks, seconds=0.0, trace=False, setup_repeats=1)
    assert m.attempted == 2 * len(tasks)  # warm-up pass plus one timed pass
    assert len(m.failures) == 4 and m.metrics["fail_rate"] == pytest.approx(4 / 6)
    line = bench.result_line(m, trace=False)
    assert line["correct"] is False and line["failed"] == 4 and line["attempted"] == 6


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(tmp_path, capsys, trace):
    m = bench.measure(_small_tasks(tmp_path), seconds=0.0, trace=trace, setup_repeats=1)
    line = bench.report("small", 7, 0.0, trace, m, "start")
    out = capsys.readouterr().out
    assert line["correct"] is True
    spec = bench.SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [s["name"] for s in spec]
    for s in spec:
        assert line["metrics"][s["name"]]["unit"] == s["unit"] == bench.UNITS[s["name"]]
    for name in m.metrics:
        assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(bench.UNITS[name])}\b", out, re.M)
    result = json.loads((bench.OUT / f"small-seed7-trace{int(trace)}.json").read_text())
    assert {"nproc", "cpu_model", "caches", "python", "numpy", "scipy", "blas_threads",
            "git_sha", "seed", "started_utc", "ended_utc"} <= set(result["provenance"])
    assert set(result["metrics"]) == set(m.metrics)
    assert (bench.OUT / "small-seed7-trace1-spans.npz").exists() == trace


def test_seed_changes_inputs_not_work(tmp_path):
    def inputs(name, seed):
        workdir = tmp_path / f"{name}-{seed}"
        tasks = workloads.build(name, seed, workdir)
        argv = [[a.replace(str(workdir), "") for a in t.argv] for t in tasks]
        configs = sorted(p.read_text() for p in workdir.glob("*.json"))
        return [t.kind for t in tasks], argv, configs

    for name in workloads.WORKLOADS:
        kinds_1, argv_1, configs_1 = inputs(name, 1)
        kinds_2, argv_2, configs_2 = inputs(name, 2)
        assert kinds_1 == kinds_2
        assert (argv_1, configs_1) != (argv_2, configs_2)
    # one counted pass per seed; the slower 1D workloads are checked by
    # `python3 perfbench/run.py --self-check 1 2`
    assert bench.self_check(["addedmass-3d"], [1, 2]) == 0


def test_numpy_floor_solves_the_same_problem():
    for scheme, rel in floor.check().items():
        assert rel <= bench.FLOOR_TOLERANCE, scheme


def test_refuses_to_run_without_sources(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stability", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0 and proc.stdout == ""
