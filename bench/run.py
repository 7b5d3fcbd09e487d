#!/usr/bin/env python3
"""Benchmark for polydescent: end-to-end solve metrics and a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload curve --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched but the
iteration stamps.  ``--trace 1`` spends the first half of ``--seconds`` on
an untraced phase and the second half on a traced phase, and reports the
per-layer metrics of the traced phase together with the tracing overhead
(traced minus untraced ``solve_s_p50``).  Every solve passes a correctness
gate; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Fuller results, and
in trace mode every span, go to ``.bench_work/`` in the checkout.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

import os

# one process, one BLAS thread: set before numpy is first imported
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import LAYER_ID, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"


@dataclass
class Phase:
    """Raw samples of one phase of a run."""

    setup_s: list = field(default_factory=list)
    compile_s: list = field(default_factory=list)
    solve_s: list = field(default_factory=list)
    groups: list = field(default_factory=list)  # per solve
    iter_s: dict = field(default_factory=dict)  # group -> per-iteration seconds
    outcomes: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    setup_roots: list = field(default_factory=list)
    solve_roots: list = field(default_factory=list)


def run_phase(wl, seconds: float, tracer=None) -> Phase:
    from workloads import Outcome

    ph = Phase()
    root = tracer.root_span if tracer is not None else (lambda kind: nullcontext(-1))
    gc.collect()

    if tracer is not None:
        from polydescent import geometry

        for k in range(wl.probes):
            with root("probe"):
                total = 0.0
                for part, p in wl.probe_points(wl.build(k)):
                    t0 = perf_counter()
                    geometry.residuals(part, p)
                    t1 = perf_counter()
                    geometry.residuals(part, p)
                    total += (t1 - t0) - (perf_counter() - t1)
            ph.compile_s.append(total)

    inputs = wl.inputs()
    deadline = perf_counter() + seconds
    k = 0
    while k < wl.first or perf_counter() < deadline:
        # fresh set-ups between solves spread the set-up samples over the run
        if k % wl.solves_per_setup == 0:
            with root("setup") as r:
                t0 = perf_counter()
                ctx = wl.setup(k)
                ph.setup_s.append(perf_counter() - t0)
            ph.setup_roots.append(r)
        with root("input"):
            prepared = wl.prepare_input(ctx, next(inputs))
        stamps = []
        stamp = None
        if tracer is None and wl.iterations(prepared) is None:
            append = stamps.append
            stamp = lambda rec: append(perf_counter())  # noqa: E731
        error = None
        with root("solve") as r:
            t0 = perf_counter()
            try:
                out = wl.solve(ctx, prepared, stamp)
            except Exception:  # a solve that raises is a failed solve
                error = traceback.format_exc(limit=3)
            elapsed = perf_counter() - t0
        ph.solve_roots.append(r)
        with root("check"):
            if error is None:
                try:
                    outcome = wl.check(ctx, prepared, out)
                except Exception:
                    outcome = Outcome(False, "", {}, traceback.format_exc(limit=3))
            else:
                outcome = Outcome(False, "", {}, error)
        group = wl.group(prepared)
        ph.solve_s.append(elapsed)
        ph.groups.append(group)
        steps = wl.iterations(prepared)
        samples = [elapsed / steps] if steps else np.diff(stamps).tolist()
        ph.iter_s.setdefault(group, []).extend(samples)
        ph.outcomes.append(outcome)
        if not outcome.ok:
            ph.failures.append(f"solve {k}: {outcome.detail}")
        k += 1
    return ph


P99_WINDOW = 1000  # iteration samples per window: ten beyond each window's p99


def windowed_p99(samples) -> float:
    """Median over consecutive windows of ``P99_WINDOW`` samples of each one's p99.

    A burst of host slowness during part of a run moves only the windows it
    falls in, where it would take over the whole tail of a pooled p99.  With
    fewer than two windows of samples this is the pooled p99.
    """
    n = len(samples) // P99_WINDOW
    if n < 2:
        return float(np.percentile(samples, 99))
    windows = np.asarray(samples[: n * P99_WINDOW]).reshape(n, P99_WINDOW)
    return float(np.median(np.percentile(windows, 99, axis=1)))


def group_mean(values_by_group: dict, stat) -> float:
    """Mean over groups of a per-group statistic (one group except on geodesic)."""
    vals = [stat(v) for v in values_by_group.values() if len(v)]
    return float(sum(vals) / len(vals))


def solve_p50(ph: Phase) -> float:
    by_group: dict = {}
    for g, s in zip(ph.groups, ph.solve_s):
        by_group.setdefault(g, []).append(s)
    return group_mean(by_group, np.median)


def end_to_end(ph: Phase) -> dict:
    return {
        "setup_s": (float(np.median(ph.setup_s)), "s"),
        "solve_s_p50": (solve_p50(ph), "s"),
        "iter_us_p50": (1e6 * group_mean(ph.iter_s, np.median), "us"),
        "iter_us_p99": (1e6 * group_mean(ph.iter_s, windowed_p99), "us"),
    }


def digest_of(ph: Phase, first: int) -> str:
    h = hashlib.sha256()
    for o in ph.outcomes[:first]:
        h.update(o.digest.encode())
    return h.hexdigest()


def record_totals(outcomes) -> dict:
    totals: dict = {}
    for o in outcomes:
        for key, v in o.counts.items():
            totals[key] = totals.get(key, 0) + v
    return totals


def layer_metrics(tracer, ph: Phase, untraced: Phase, first: int):
    """Per-layer metrics of a traced phase, and exact counts over its first solves."""
    a = tracer.arrays()
    root_kind = a["layer"][a["root"]]
    in_solve = root_kind == LAYER_ID["solve"]
    in_loop = in_solve | (root_kind == LAYER_ID["check"])
    in_setup = root_kind == LAYER_ID["setup"]
    n_solves = len(ph.solve_s)
    n_spans = len(a["layer"])

    def of(layer):
        return a["layer"] == LAYER_ID[layer]

    def calls(layer):
        return float(np.count_nonzero(of(layer) & in_loop)) / n_solves

    def us_per_call(layer):
        m = of(layer) & in_loop
        return 1e6 * float(a["dur"][m].sum()) / max(1, int(m.sum()))

    def self_s(layer):
        return float(a["self"][of(layer) & in_solve].sum()) / n_solves

    def fail_share(layer):
        m = of(layer) & in_loop
        return float(a["failed"][m].sum()) / max(1, int(m.sum()))

    def per_setup(layer, weights):
        m = of(layer) & in_setup
        tot = np.bincount(a["root"][m], weights=weights[m], minlength=n_spans)
        return tot[np.array(ph.setup_roots)]

    ones = np.ones(n_spans)
    records = record_totals(ph.outcomes)
    iters = records.get("iterations", 0)

    def per_iter(n):
        return float(n) / iters if iters else 0.0

    load = a["dur"][of("cli.load_problem")]
    solve_dur = a["dur"][np.array(ph.solve_roots)]
    child_self = a["self"][in_solve & (a["layer"] != LAYER_ID["solve"])].sum()
    traced_p50 = solve_p50(ph)
    untraced_p50 = solve_p50(untraced)
    metrics = {
        "polynomials.parse.calls": (float(np.median(per_setup("polynomials.parse", ones))), "calls/setup"),
        "polynomials.parse.s": (float(np.median(per_setup("polynomials.parse", a["dur"]))), "s"),
        "triangular.partition.s": (float(np.median(per_setup("triangular.partition", a["dur"]))), "s"),
        "geometry.compile.s": (float(np.median(ph.compile_s)), "s"),
        "geometry.project.calls": (calls("geometry.project"), "calls/solve"),
        "geometry.project.us_per_call": (us_per_call("geometry.project"), "us"),
        "geometry.project.self_s": (self_s("geometry.project"), "s/solve"),
        "geometry.project.fail_share": (fail_share("geometry.project"), "ratio"),
        "geometry.frame.calls": (calls("geometry.frame"), "calls/solve"),
        "geometry.frame.us_per_call": (us_per_call("geometry.frame"), "us"),
        "geometry.frame.self_s": (self_s("geometry.frame"), "s/solve"),
        "geometry.pullback.calls": (calls("geometry.pullback"), "calls/solve"),
        "geometry.pullback.us_per_call": (us_per_call("geometry.pullback"), "us"),
        "geometry.pullback.self_s": (self_s("geometry.pullback"), "s/solve"),
        "geometry.pullback.fail_share": (fail_share("geometry.pullback"), "ratio"),
        "geometry.lift.calls": (calls("geometry.lift"), "calls/solve"),
        "geometry.lift.us_per_call": (us_per_call("geometry.lift"), "us"),
        "geometry.lift.self_s": (self_s("geometry.lift"), "s/solve"),
        "geometry.residuals.self_s": (self_s("geometry.residuals"), "s/solve"),
        "geodesics.christoffel.calls": (calls("geodesics.christoffel"), "calls/solve"),
        "geodesics.christoffel.us_per_call": (us_per_call("geodesics.christoffel"), "us"),
        "geodesics.christoffel.self_s": (self_s("geodesics.christoffel"), "s/solve"),
        "geodesics.integrate.self_s": (self_s("geodesics.integrate"), "s/solve"),
        "descent.self_s": (self_s("descent"), "s/solve"),
        "descent.iterations": (float(iters) / n_solves, "iters/solve"),
        "descent.accept_share": (per_iter(records.get("SUCCESS", 0)), "ratio"),
        "descent.rebase_share": (per_iter(records.get("REBASE", 0)), "ratio"),
        "descent.dead_iter_share": (per_iter(records.get("dead", 0)), "ratio"),
        "descent.projections_per_iter": (
            per_iter(np.count_nonzero(of("geometry.project") & in_solve)), "calls/iter"),
        "descent.pullbacks_per_iter": (
            per_iter(np.count_nonzero(of("geometry.pullback") & in_solve)), "calls/iter"),
        "cli.load_problem.s": (float(np.median(load)) if load.size else 0.0, "s"),
        "cli.self_s": (self_s("cli"), "s/solve"),
        "trace.overhead_s": (traced_p50 - untraced_p50, "s"),
        "trace.overhead_share": ((traced_p50 - untraced_p50) / untraced_p50, "ratio"),
        "trace.accounted_share": (float(child_self / solve_dur.sum()), "ratio"),
    }

    # exact counts over the first solves, from the spans under their roots
    first_roots = np.zeros(n_spans, dtype=bool)
    first_roots[np.array(ph.solve_roots[:first])] = True
    in_first = first_roots[a["root"]]
    counts = {}
    for layer in ("geometry.project", "geometry.pullback", "geometry.lift",
                  "geometry.frame", "geodesics.christoffel"):
        m = of(layer) & in_first
        counts[f"{layer}.calls"] = int(m.sum())
        counts[f"{layer}.failed"] = int(a["failed"][m].sum())
    return metrics, counts


def git_sha() -> str:
    """The checkout's commit, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "polydescent" / "__init__.py").is_file():
        print(f"error: no polydescent sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import polydescent

    if Path(polydescent.__file__).resolve().parent != SRC / "polydescent":
        print(f"error: polydescent imported from {polydescent.__file__}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    WORKDIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, WORKDIR)
    wl.prepare()

    phases = []
    if args.trace == 0:
        untraced = run_phase(wl, args.seconds)
        phases.append(untraced)
        metrics = end_to_end(untraced)
        counts = {}
    else:
        untraced = run_phase(wl, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(wl, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        phases += [untraced, traced]
        metrics, counts = layer_metrics(tracer, traced, untraced, wl.first)
        tracer.write(WORKDIR / f"{wl.name}-spans.csv")

    digests = [digest_of(ph, wl.first) for ph in phases]
    counts = {**record_totals(untraced.outcomes[: wl.first]), **counts}
    attempted = sum(len(ph.outcomes) for ph in phases)
    failures = [f for ph in phases for f in ph.failures]
    correct = not failures and len(set(digests)) == 1
    facts = machine()

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  seconds {args.seconds}")
    print("machine " + json.dumps(facts))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for ph, label in zip(phases, ("untraced", "traced")):
        print(f"samples {label}: {len(ph.setup_s)} set-ups, {len(ph.solve_s)} solves, "
              f"{sum(len(v) for v in ph.iter_s.values())} iteration samples")
    print(f"failed_share {len(failures)}/{attempted} (base: solves attempted)")
    for f in failures[:5]:
        print("failure " + f.replace("\n", " | "))
    print(f"digest {digests[0]} (first {wl.first} solves)")
    if len(set(digests)) > 1:
        print("digest mismatch between phases: " + " ".join(digests))
    print(f"counts {json.dumps(counts, sort_keys=True)} (first {wl.first} solves)")

    full = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": facts, "digests": digests,
        "counts": counts, "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = WORKDIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(full, indent=2) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": full["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
