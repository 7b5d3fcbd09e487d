"""Tests of the benchmark itself: ``python -m pytest bench -q`` from the repo root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from polydescent.geometry import residuals  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Curve, Geodesic, Hyperbola, Tower, build_tower, tower_start, tower_system  # noqa: E402


@pytest.mark.parametrize("seed,shape", enumerate(Tower.SHAPES[::3]))
def test_tower_generator(seed, shape):
    system = tower_system(seed, *shape)
    assert system == tower_system(seed, *shape)
    assert system.texts() == tower_system(seed, *shape).texts()
    assert (len(system.names), system.m) == shape

    problem = build_tower(system)  # parses and passes validate_triangular
    part = problem.partition
    assert part.manifold_dim >= 2
    assert len(part.eliminated) == len(system.names) - (2 * system.m + 1)

    free = [0.3, -0.2, 0.1, 0.4][: system.m]
    start = tower_start(problem, free)
    assert float(np.max(np.abs(residuals(part, start)))) <= 1e-10
    ambient = system.ambient_point(free)
    assert max(abs(p.evaluate(ambient)) for p in problem.polys) <= 1e-12


def test_tower_seeds_differ():
    assert len({tower_system(s, 24, 3).texts()[0] for s in range(8)}) > 1


def _short(cls, tmp_path, seed=3, **sizes):
    wl = cls(seed, tmp_path)
    wl.probes = 2
    for key, value in sizes.items():
        setattr(wl, key, value)
    wl.prepare()
    return wl


SHORT = [
    (Curve, {"first": 2, "j_max": 300}),
    (Hyperbola, {"first": 3, "j_max": 600}),
    (Tower, {"first": 2, "j_max": 60}),
    (Geodesic, {"first": 4}),
]


@pytest.mark.parametrize("cls,sizes", SHORT, ids=[c.name for c, _ in SHORT])
def test_runs_repeat_exactly(cls, sizes, tmp_path):
    wl = _short(cls, tmp_path, **sizes)
    a = run.run_phase(wl, 0.0)
    b = run.run_phase(wl, 0.0)
    assert not a.failures and not b.failures
    assert run.digest_of(a, wl.first) == run.digest_of(b, wl.first)
    assert run.record_totals(a.outcomes) == run.record_totals(b.outcomes)

    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            traced = run.run_phase(wl, 0.0, tracer)
        finally:
            tracer.uninstall()
        assert run.digest_of(traced, wl.first) == run.digest_of(a, wl.first)
        metrics, exact = run.layer_metrics(tracer, traced, a, wl.first)
        counts.append(exact)
        assert metrics["trace.accounted_share"][0] > 0.98
    assert counts[0] == counts[1]


def test_tracer_restores_the_program(tmp_path):
    import polydescent
    from polydescent import cli, descent, geometry

    before = (cli.descend, descent.descend, geometry.lift, polydescent.lift,
              geometry.PulledBackObjective.__call__)
    tracer = Tracer()
    tracer.install()
    assert cli.descend is not before[0] and polydescent.lift is not before[3]
    tracer.uninstall()
    after = (cli.descend, descent.descend, geometry.lift, polydescent.lift,
             geometry.PulledBackObjective.__call__)
    assert after == before


def test_gate_rejects_a_wrong_minimum(tmp_path):
    wl = _short(Hyperbola, tmp_path, first=1, j_max=600)
    wl.oracle += 0.01
    ph = run.run_phase(wl, 0.0)
    assert len(ph.failures) == 1 and "oracle" in ph.failures[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "curve", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "polydescent" in proc.stderr


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "solve_s_p50", "iter_us_p50", "iter_us_p99"]


def test_windowed_p99_ignores_a_burst():
    rng = np.random.default_rng(0)
    quiet = rng.normal(100.0, 5.0, 10 * run.P99_WINDOW)
    burst = quiet.copy()
    burst[: 2 * run.P99_WINDOW] *= 3.0  # a fifth of the run three times slower
    assert np.percentile(burst, 99) > 250.0
    assert run.windowed_p99(burst) == pytest.approx(run.windowed_p99(quiet), rel=0.05)
    few = quiet[: run.P99_WINDOW + 5]
    assert run.windowed_p99(few) == np.percentile(few, 99)
