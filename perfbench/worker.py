"""Measure one workload in this process; run.py starts it as a child.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR

One repetition does what ``richardsfv solve`` does for the workload:
build the mesh from the generated lists, build the dam problem and its
discretization (setup), run the continuation (solve), and write
report.csv, the per-step trace CSVs and solution.vtk (write). Each
repetition is checked afterwards, outside the timed region.

With --trace 0 repetitions run for --seconds, each followed by
setup-only samples for SETUP_SHARE of its time (at least MIN_SETUPS
setup samples in all). With --trace 1 the first half of the time runs
plain repetitions and the second half traced ones. The last line of
standard output is the result: correct, attempted, failed and the metric
values by name; run.py adds peak_rss_mb, which only the parent process
can measure, and the units.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import richardsfv  # noqa: E402
from richardsfv import (benchmarks, continuation, discretization,  # noqa: E402
                        mesh, output)
from richardsfv.continuation import ContinuationConfig  # noqa: E402
from richardsfv.solvers import SolverConfig  # noqa: E402

import checks  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, make_input  # noqa: E402

MIN_REPS = 2  # plain repetitions per untraced run: determinism needs two
SETUP_SHARE = 0.1  # setup-only time after a repetition, of its time
MIN_SETUPS = 3
NIT_MAX = 80


@dataclass
class Rep:
    setup_s: float
    solve_s: float
    total_s: float
    disc: object
    h: np.ndarray
    report: object
    files: list


def setup(w, mesh_input):
    m = mesh.build_mesh(mesh_input.vertices, mesh_input.cells,
                        mesh_input.tag_edges)
    spec = benchmarks.build_dam("vgm", m)
    return discretization.Discretization(spec, w.scheme)


def write_outputs(disc, h, report, out):
    """What ``richardsfv solve`` writes; returns the paths."""
    files = [out / "report.csv"]
    output.write_report_csv(report, files[0])
    for i, step in enumerate(report.steps):
        files.append(out / f"trace_step{i:03d}.csv")
        output.write_convergence_csv(step.trace, files[-1])
    files.append(out / "solution.vtk")
    output.write_vtk(output.field_snapshot(disc, h), files[-1])
    return files


def run_rep(w, mesh_input, cfgs, out, tracer=None):
    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    t0 = time.perf_counter()
    with span(tracing.SETUP):
        disc = setup(w, mesh_input)
    t1 = time.perf_counter()
    with span(tracing.SOLVE):
        h, report = continuation.run_continuation(disc, *cfgs)
    t2 = time.perf_counter()
    with span(tracing.WRITE):
        files = write_outputs(disc, h, report, out)
    t3 = time.perf_counter()
    return Rep(t1 - t0, t2 - t1, t3 - t0, disc, h, report, files)


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def signature(rep):
    """What must repeat exactly for one seed: outcomes, steps,
    iterations and the bytes of report.csv and solution.vtk."""
    steps = tuple((s.q_target, s.outcome, s.iterations)
                  for s in rep.report.steps)
    return steps, digest(rep.files[0]), digest(rep.files[-1])


def facts(rep):
    """The counts a repetition leaves behind once its state is dropped."""
    m = rep.disc.spec.mesh
    return {"cells": m.n_cells, "faces": m.n_faces,
            "stencil_entries": len(rep.disc.col),
            "steps": [(s.success, s.iterations) for s in rep.report.steps],
            "final_q": rep.report.final_q,
            "output_bytes": sum(os.path.getsize(f) for f in rep.files)}


@dataclass
class Sample:
    setup_s: float
    solve_s: float
    total_s: float
    facts: dict
    tracer: object = None


class Runner:
    """Repetitions of one workload and the checks that count failures.

    A repetition's solved state is dropped once it is checked, and
    garbage is collected before the next one, so repetitions neither
    accumulate memory nor inherit each other's collector work.
    """

    def __init__(self, name, seed, out):
        self.w = WORKLOADS[name]
        self.name, self.seed = name, seed
        self.input = make_input(name, seed)
        self.cfgs = (SolverConfig(method=self.w.method, nit_max=NIT_MAX),
                     ContinuationConfig(kind=self.w.kind))
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None  # signature of the first good repetition
        self.perturbation_tested = False

    def repeat(self, budget, min_reps, traced=False, setups=None):
        """Good samples from repetitions until the next would overrun
        budget seconds, and at least min_reps of them (giving up after
        2 * min_reps tries).

        With a setups list, each good repetition adds its setup time and
        is followed by setup-only samples for SETUP_SHARE of its time,
        so that setup samples spread over the whole run."""
        good = []
        start = time.perf_counter()
        last = 0.0
        tries = 0
        while time.perf_counter() - start + last <= budget or \
                (len(good) < min_reps and tries < 2 * min_reps):
            tries += 1
            t = time.perf_counter()
            tracer = tracing.Tracer(f"{self.name}-s{self.seed}-"
                                    f"r{self.attempted}") if traced else None
            sample = self.one(tracer)
            if sample is not None:
                good.append(sample)
                if setups is not None:
                    until = time.perf_counter() + SETUP_SHARE * sample.total_s
                    setups += [sample.setup_s]
                    setups += self.setups(0, until, sample.setup_s)
            last = time.perf_counter() - t
        return good

    def one(self, tracer):
        self.attempted += 1
        gc.collect()
        try:
            if tracer is None:
                rep = run_rep(self.w, self.input, self.cfgs, self.out)
            else:
                with tracer.installed():
                    rep = run_rep(self.w, self.input, self.cfgs, self.out,
                                  tracer)
            found = self.check(rep)
        except Exception:  # a raising repetition is a failed one
            traceback.print_exc()
            found = ["repetition raised"]
        if found:
            self.failed += 1
            self.problems += [f"rep {self.attempted}: {p}" for p in found]
            return None
        return Sample(rep.setup_s, rep.solve_s, rep.total_s, facts(rep),
                      tracer)

    def check(self, rep):
        cfg, cont = self.cfgs
        found = checks.check_solution(rep.disc, rep.h, rep.report, cfg,
                                      cont.kind)
        if not found and not self.perturbation_tested:
            self.perturbation_tested = True
            if not checks.rejects_perturbation(rep.disc, rep.h, rep.report,
                                               cfg, cont.kind):
                found.append("check accepted a perturbed head")
        sig = signature(rep)
        if self.reference is None:
            self.reference = sig
        elif sig != self.reference:
            found.append("outcomes, iterations or output bytes differ "
                         "from the first repetition")
        return found

    def setups(self, min_n, deadline, estimate):
        """Setup-only samples: at least min_n, then more while the next,
        taken to last as long as the previous (or estimate), would end
        before the deadline (a perf_counter value)."""
        samples = []
        last = estimate
        while len(samples) < min_n or time.perf_counter() + last <= deadline:
            gc.collect()
            t0 = time.perf_counter()
            setup(self.w, self.input)
            last = time.perf_counter() - t0
            samples.append(last)
        return samples


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest():
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def manifest(name, seed, trace):
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "workload": name, "seed": seed, "trace": trace,
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "richardsfv": richardsfv.__file__,
        "backend": richardsfv.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": deps.get("blas", {}).get("name"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        # unset means the library default: one thread per CPU
        "blas_threads": {v: os.environ.get(v, "unset") for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "richards_threads": os.environ.get("RICHARDS_THREADS", "unset"),
    }


def end_to_end(runner, samples, setups):
    """End-to-end metric values except peak_rss_mb (see run.py)."""
    steps = samples[0].facts["steps"]
    return {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(s.solve_s for s in samples),
        "total_s": statistics.median(s.total_s for s in samples),
        "total_iters": sum(it for _, it in steps),
        "cont_steps": len(steps) - 1,
        "final_q": samples[0].facts["final_q"],
        "ok_share": (runner.attempted - runner.failed) / runner.attempted,
    }


def per_layer(plain, traced):
    """Per-layer metric values: medians over the traced repetitions."""
    rows = [tracing.layer_metrics(s.tracer.spans, s.tracer.info, s.facts)
            for s in traced]
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    out["trace.overhead_s"] = \
        statistics.median(s.solve_s for s in traced) - \
        statistics.median(s.solve_s for s in plain)
    return out


def span_summary(tracers):
    table = {}
    for tr in tracers:
        for name, (calls, total, own, durs) in \
                tracing.span_table(tr.spans).items():
            row = table.setdefault(name, [0, 0.0, 0.0, []])
            row[0] += calls
            row[1] += total
            row[2] += own
            row[3] += durs
    n = len(tracers)
    return {name: {"calls_per_rep": calls / n, "total_s_per_rep": total / n,
                   "self_s_per_rep": own / n,
                   "per_call_s": stats.summarize(durs)}
            for name, (calls, total, own, durs) in sorted(table.items())}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("need --seed >= 0 and --seconds > 0")
    args.out.mkdir(parents=True, exist_ok=True)

    info = manifest(args.workload, args.seed, args.trace)
    print("manifest " + json.dumps(info), flush=True)
    runner = Runner(args.workload, args.seed, args.out)
    detail = {"manifest": info}
    if args.trace:
        plain = runner.repeat(args.seconds / 2, 1)
        traced = runner.repeat(args.seconds / 2, 1, traced=True)
        tracers = [s.tracer for s in traced]
        tracing.write_spans(tracers, args.out / f"spans-seed{args.seed}.csv")
        ok = bool(plain and traced)
        values = per_layer(plain, traced) if ok else {}
        detail["spans"] = span_summary(tracers)
    else:
        setups = []
        plain = runner.repeat(args.seconds, MIN_REPS, setups=setups)
        ok = len(plain) >= MIN_REPS
        if ok:
            setups += runner.setups(MIN_SETUPS - len(setups), 0.0,
                                    plain[0].setup_s)
        values = end_to_end(runner, plain, setups) if ok else {}
        samples = {"setup_s": setups,
                   "solve_s": [s.solve_s for s in plain],
                   "total_s": [s.total_s for s in plain]}
        detail["samples"] = {k: dict(stats.summarize(v), values=v)
                             for k, v in samples.items() if v}
    detail["problems"] = runner.problems
    (args.out / f"result-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(detail, indent=1) + "\n")
    for k, v in detail.items():
        if k != "manifest":
            print(f"{k} " + json.dumps(v), flush=True)
    if not ok:
        print("no metrics: too few repetitions passed the check",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "values": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
