"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

The count test runs each workload's traced ops for real, so the file takes
about two minutes.
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

import monorhythm.cli as cli  # noqa: E402
import monorhythm.galerkin as galerkin  # noqa: E402
import monorhythm.periodic as periodic  # noqa: E402
import monorhythm.spectral as spectral  # noqa: E402

UNITS = {m["name"]: m["unit"] for m in run.bench_spec()["per_layer"]}
COUNTS = sorted(name for name, unit in UNITS.items() if unit in run.COUNT_UNITS)


def traced_run(name: str, seed: int, tmp: Path) -> dict:
    work = tmp / f"work-{len(list(tmp.iterdir()))}"
    work.mkdir()
    h = run.Harness(cli, workloads.WORKLOADS[name], seed, work)
    metrics = run.run_traced(h, 0.0, work / "spans.json", UNITS)
    assert h.failed == 0
    return metrics


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(name, tmp_path):
    first = traced_run(name, 7, tmp_path)
    second = traced_run(name, 7, tmp_path)
    assert set(first) == set(UNITS)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    # structural facts of each command, whatever the solvers do inside
    if name == "orbit":
        assert first["periodic.shooting_integrations"] > 0
        assert first["periodic.picard_sweeps"] > 0
    if name == "picard":
        assert first["periodic.shooting_integrations"] == 0
    if name == "refine":
        assert first["periodic.picard_s"] == first["periodic.shooting_s"] == 0.0
    if name == "region":
        assert first["galerkin.integrations"] == 0
        assert first["feasibility.a2_bound_points"] == 512


def test_wrappers_reach_every_importing_namespace_and_come_off():
    integrate = galerkin.integrate_cauchy
    project = spectral.project_nonlinearity
    command = cli._COMMANDS["converge"]
    with layers.Tracer().installed("monorhythm"):
        assert cli.integrate_cauchy is periodic.integrate_cauchy is galerkin.integrate_cauchy
        assert galerkin.integrate_cauchy is not integrate
        assert galerkin.project_nonlinearity is periodic.project_nonlinearity
        assert periodic.project_nonlinearity is spectral.project_nonlinearity is not project
        assert cli.picard_solve is periodic.picard_solve
        assert cli._COMMANDS["converge"] is cli.cmd_converge is not command
    assert cli.integrate_cauchy is periodic.integrate_cauchy is integrate
    assert galerkin.project_nonlinearity is periodic.project_nonlinearity is project
    assert cli._COMMANDS["converge"] is cli.cmd_converge is command


def _write_report(out: Path, payload: dict, flags: dict) -> None:
    out.mkdir()
    report = {"payload": payload, "condition_flags": flags, "timings": {}}
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")


def test_orbit_check_rejects_a_wide_gap_and_a_ball_exit(tmp_path):
    inp = workloads.WORKLOADS["orbit"].draw(random.Random(0))
    orbit = {"converged": True, "ct_norm": 0.005}
    pay = {"picard": orbit, "shooting": orbit, "cross_method_gap": 1e-3}
    _write_report(tmp_path / "out", pay, {"ball_member": False})
    problems, extra = workloads.WORKLOADS["orbit"].check(tmp_path / "out", inp)
    assert len(problems) == 2
    assert extra["orbit_gap_rel"] == pytest.approx(0.2)


def test_region_check_counts_raster_rows(tmp_path):
    inp = workloads.WORKLOADS["region"].draw(random.Random(0))
    out = tmp_path / "out"
    _write_report(out, {}, {"boundary_monotone": True, "interior_consistent": True})
    (out / "region_raster.csv").write_text("# c\na1,a2,admissible\n0,0,1\n", encoding="utf-8")
    problems, _ = workloads.WORKLOADS["region"].check(out, inp)
    assert problems == ["raster has 1 rows, expected 262144"]


def test_sampler_times_chunks_during_its_body_then_disarms():
    sampler = run.SpeedSampler()
    handler = signal.getsignal(signal.SIGALRM)
    with sampler.armed():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.chunks) >= 3
    assert all(c > 0 for c in sampler.chunks)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_percentile_needs_ten_samples_beyond_it():
    assert run.percentile_note([1.0] * 10).startswith("no percentile")
    assert run.percentile_note([float(i) for i in range(20)]) == "p50 9.0000 s"
    assert run.percentile_note([float(i) for i in range(200)]).startswith("p95")


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "region", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
