"""Spans around the program's layer boundaries, from outside the program.

The tracer swaps selected public functions of the ``richardsfv``
modules for timing wrappers while it is installed, and restores them
afterwards. Each call becomes a span (name, start, end, parent span,
run id) kept in memory; the per-layer metrics are derived from the
spans of one traced repetition. Counts that only the return value
carries (linear-solve method and iterations, line-search backtracks)
are recorded at the same boundary.
"""

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, class or None, attribute). A function is wrapped
# where its callers look it up: solve_nonlinear in continuation's
# namespace and cell_curves in discretization's, because those modules
# import the names; face_system on the _kernels package, which
# Discretization reaches through its module object.
TARGETS = (
    ("mesh.build_mesh", "richardsfv.mesh", None, "build_mesh"),
    ("discretization.init", "richardsfv.discretization", "Discretization",
     "__init__"),
    ("discretization.residual", "richardsfv.discretization",
     "Discretization", "residual"),
    ("discretization.assemble", "richardsfv.discretization",
     "Discretization", "assemble"),
    ("discretization.jacobian", "richardsfv.discretization",
     "Discretization", "assemble_jacobian"),
    ("discretization.tpfa_transmissibilities", "richardsfv.discretization",
     None, "tpfa_transmissibilities"),
    ("mpfa.mpfa_o_stencils", "richardsfv._mpfa", None, "mpfa_o_stencils"),
    ("constitutive.cell_curves", "richardsfv.discretization", None,
     "cell_curves"),
    ("kernels.face_system", "richardsfv._kernels", None, "face_system"),
    ("linalg.solve", "richardsfv.linalg", None, "solve"),
    ("solvers.newton_step", "richardsfv.solvers", None, "newton_step"),
    ("solvers.picard_step", "richardsfv.solvers", None, "picard_step"),
    ("solvers.armijo_line_search", "richardsfv.solvers", None,
     "armijo_line_search"),
    ("solvers.solve_nonlinear", "richardsfv.continuation", None,
     "solve_nonlinear"),
    ("output.write_report_csv", "richardsfv.output", None,
     "write_report_csv"),
    ("output.write_convergence_csv", "richardsfv.output", None,
     "write_convergence_csv"),
    ("output.write_vtk", "richardsfv.output", None, "write_vtk"),
)

# Root spans the benchmark opens around the phases of one repetition.
SETUP, SOLVE, WRITE = "bench.setup", "continuation.run_continuation", \
    "bench.write"


def _linalg_info(args, kwargs, result):
    A = args[0] if args else kwargs["A"]
    _, rep = result
    n = A.shape[0]
    if rep.method == "dense":
        nbytes = 8 * n * n
    else:
        nbytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    return {"method": rep.method, "iterations": rep.iterations,
            "breakdown": rep.breakdown, "rel_residual": rep.rel_residual,
            "bytes": nbytes}


def _linesearch_info(args, kwargs, result):
    omega, backtracks, _ = result
    return {"backtracks": backtracks, "failed": omega is None}


OBSERVERS = {"linalg.solve": _linalg_info,
             "solvers.armijo_line_search": _linesearch_info}


class Tracer:
    """In-memory span recorder for one run id. ``spans[i]`` is [name,
    start, end, parent index or None, run id]; ``info[i]`` holds the
    counts observed at that span's boundary, or None."""

    def __init__(self, run):
        self.spans = []
        self.info = []
        self.run = run
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.run])
        self.info.append(None)
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, i):
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if observe is not None:
                self.info[i] = observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every TARGETS function; restore the originals on exit."""
        saved = []
        try:
            for name, module, cls, attr in TARGETS:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def write_spans(tracers, path):
    """All spans as CSV; ids and parents are numbered within each run."""
    with open(path, "w") as fh:
        fh.write("run,id,name,start,end,parent\n")
        for tr in tracers:
            for i, (name, start, end, parent, run) in enumerate(tr.spans):
                fh.write(f"{run},{i},{name},{start!r},{end!r},"
                         f"{'' if parent is None else parent}\n")


def self_times(spans):
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent
    and never overlap each other.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - c
            for (_, start, end, _, _), c in zip(spans, covered)]


def phases(spans):
    """Name of each span's root ancestor (parents precede children)."""
    out = []
    for name, _, _, parent, _ in spans:
        out.append(name if parent is None else out[parent])
    return out


def span_table(spans):
    """name -> [calls, total seconds, self seconds, list of durations]."""
    table = defaultdict(lambda: [0, 0.0, 0.0, []])
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        row = table[name]
        row[0] += 1
        row[1] += end - start
        row[2] += own
        row[3].append(end - start)
    return dict(table)


def layer_metrics(spans, info, facts):
    """Per-layer metrics of one traced repetition.

    ``spans``/``info`` are that repetition's records; ``facts`` carries
    what the spans cannot: mesh sizes, stencil entries, the continuation
    steps as (outcome is converged, iterations) pairs, output bytes.
    Per-iteration layers count only spans inside the solve phase.
    """
    own = self_times(spans)
    phase = phases(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    selft = defaultdict(float)
    solves, searches = [], []
    for i, (name, start, end, _, _) in enumerate(spans):
        key = name if phase[i] != SOLVE else "solve:" + name
        calls[key] += 1
        total[key] += end - start
        selft[key] += own[i]
        if key == "solve:linalg.solve":
            solves.append(info[i])
        elif key == "solve:solvers.armijo_line_search":
            searches.append(info[i])

    steps = facts["steps"]
    total_iters = sum(it for _, it in steps)
    krylov = [s for s in solves if s["method"] in ("bicgstab", "splu")]
    return {
        "mesh.build_s": total["mesh.build_mesh"],
        "mesh.cells": facts["cells"],
        "mesh.faces": facts["faces"],
        "discretization.init_s": total["discretization.init"],
        "discretization.init_self_s": selft["discretization.init"],
        "discretization.stencil_s":
            total["discretization.tpfa_transmissibilities"]
            + total["mpfa.mpfa_o_stencils"],
        "discretization.stencil_entries": facts["stencil_entries"],
        "discretization.residual_calls":
            calls["solve:discretization.residual"],
        "discretization.residual_s": total["solve:discretization.residual"],
        "discretization.residual_self_s":
            selft["solve:discretization.residual"],
        "discretization.assemble_calls":
            calls["solve:discretization.assemble"],
        "discretization.jacobian_calls":
            calls["solve:discretization.jacobian"],
        "discretization.jacobian_s": total["solve:discretization.jacobian"],
        "discretization.jacobian_self_s":
            selft["solve:discretization.jacobian"],
        "constitutive.cell_curves_calls":
            calls["solve:constitutive.cell_curves"],
        "constitutive.cell_curves_s": total["solve:constitutive.cell_curves"],
        "kernels.face_system_calls": calls["solve:kernels.face_system"],
        "kernels.face_system_s": total["solve:kernels.face_system"],
        "linalg.solve_calls": len(solves),
        "linalg.solve_s": total["solve:linalg.solve"],
        "linalg.dense_solves": sum(s["method"] == "dense" for s in solves),
        "linalg.krylov_solves": len(krylov),
        "linalg.direct_fallbacks": sum(s["method"] == "splu" for s in krylov),
        "linalg.krylov_iters": sum(s["iterations"] for s in krylov),
        "linalg.breakdowns": sum(s["breakdown"] for s in solves),
        "linalg.max_rel_residual":
            max((s["rel_residual"] for s in solves), default=0.0),
        "linalg.krylov_accept_ratio":
            sum(s["method"] == "bicgstab" for s in krylov) / len(krylov)
            if krylov else 0.0,
        "linalg.bytes_per_solve":
            sum(s["bytes"] for s in solves) / len(solves) if solves else 0.0,
        "solvers.newton_steps": calls["solve:solvers.newton_step"],
        "solvers.picard_steps": calls["solve:solvers.picard_step"],
        "solvers.linesearch_calls": len(searches),
        "solvers.linesearch_s": total["solve:solvers.armijo_line_search"],
        "solvers.backtracks": sum(s["backtracks"] for s in searches),
        "solvers.linesearch_failed": sum(s["failed"] for s in searches),
        "solvers.residuals_per_iter":
            calls["solve:discretization.residual"] / total_iters
            if total_iters else 0.0,
        "solvers.nonlinear_self_s": selft["solve:solvers.solve_nonlinear"],
        "continuation.steps_attempted": len(steps) - 1,
        "continuation.steps_failed": sum(not ok for ok, _ in steps[1:]),
        "continuation.useful_iter_ratio":
            sum(it for ok, it in steps if ok) / total_iters
            if total_iters else 0.0,
        "continuation.self_s": selft["solve:" + SOLVE],
        "output.write_s": total["output.write_report_csv"]
            + total["output.write_convergence_csv"]
            + total["output.write_vtk"],
        "output.bytes": facts["output_bytes"],
    }
