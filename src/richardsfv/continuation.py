"""Nonlinearity continuation driver and solver-comparison sweeps.

The driver's first level is q = 0 (fully saturated, linear for the
linear flux schemes), then q walks toward 1 with an adaptive step:
doubling after a successful nonlinear solve, halving after a failed one,
always restarting a failed step from the last accepted state. Every
attempted step keeps its full convergence trace, which is the data
behind the comparison tables. A sweep builds one Discretization per
flux scheme and runs all of that scheme's entries on it; a scheme the
build refuses gives rows too.
"""

import hashlib
import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .constitutive import _kind_code
from .discretization import AssemblyError, Discretization, _check_scheme
from .solvers import CONVERGED, SolverConfig, solve_nonlinear

__all__ = [
    "ContinuationConfig",
    "StepRecord",
    "ContinuationReport",
    "run_continuation",
    "SweepEntry",
    "SweepRow",
    "sweep",
]

logger = logging.getLogger(__name__)

DQ_INCREASE = 2.0  # dq's factor after an accepted level above q = 0
DQ_DECREASE = 0.5  # dq's factor after a failed attempt
DQ_MIN = 1e-4  # a run ends once dq falls below this
MAX_STEPS = 100  # a run ends after this many attempts above q = 0


@dataclass(frozen=True)
class ContinuationConfig:
    """Continuation controls: kind selects the permeability interpolation
    ("linear" or "power"). dq's start (1, the target problem directly),
    its factors, its floor DQ_MIN and the budget MAX_STEPS are fixed."""

    kind: str = "linear"

    def __post_init__(self):
        _kind_code(self.kind)  # raises, naming the supported kinds


@dataclass
class StepRecord:
    """One attempted nonlinear solve within a continuation run."""

    q_target: float
    outcome: str
    iterations: int
    trace: object
    initial_hash: str
    final_hash: str

    @property
    def success(self):
        return self.outcome == CONVERGED


@dataclass
class ContinuationReport:
    """Ordered step records plus totals.

    The q = 0 stage is steps[0]; successful/failed counts cover only the
    q > 0 continuation steps. total_iterations counts every nonlinear
    iteration of every attempted step, including failed ones.
    """

    steps: list = field(default_factory=list)
    success: bool = False
    final_q: float = 0.0

    @property
    def n_success(self):
        return sum(1 for s in self.steps[1:] if s.success)

    @property
    def n_failed(self):
        return sum(1 for s in self.steps[1:] if not s.success)

    @property
    def total_iterations(self):
        return sum(s.iterations for s in self.steps)


def _state_hash(h):
    return hashlib.sha256(np.ascontiguousarray(h).tobytes()).hexdigest()[:16]


def run_continuation(disc, solver_cfg=None, cont_cfg=None, h0=None):
    """Drive the continuation from q = 0 to q = 1 on a Discretization.

    q = 0 is the first level of one attempt loop; each attempt starts
    from the last accepted state, at first h0 (default: the mean of the
    Dirichlet boundary heads). Returns (h, ContinuationReport);
    report.success is True only when the q = 1 problem converged. A
    failed q = 0 level is fatal (no retry): its own iterate is returned.
    """
    solver_cfg = solver_cfg or SolverConfig()
    cont_cfg = cont_cfg or ContinuationConfig()
    kind = cont_cfg.kind

    report = ContinuationReport()
    h = np.array(h0, dtype=float, copy=True) if h0 is not None \
        else np.full(disc.n_cells, float(np.mean(disc.bc[disc.is_dir])))
    h_hash = _state_hash(h)
    q_cur, q_next, dq = 0.0, 0.0, 1.0
    while True:
        h_try, trace = solve_nonlinear(disc, h, q_next, kind, solver_cfg)
        rec = StepRecord(q_next, trace.outcome, trace.iterations, trace,
                         h_hash, _state_hash(h_try))
        report.steps.append(rec)
        if rec.success:
            if q_next > 0.0:  # the first step past q = 0 is dq = 1
                # cap so a failure at q=1 halves to a genuinely new target
                dq = min(dq * DQ_INCREASE, 1.0 - q_next)
            q_cur, h, h_hash = q_next, h_try, rec.final_hash
            if q_cur >= 1.0:
                break
        elif q_next == 0.0:
            return h_try, report
        else:
            # discard the failed iterate entirely; h stays at the last
            # accepted state
            dq *= DQ_DECREASE
            if dq < DQ_MIN:
                break
        if len(report.steps) - 1 >= MAX_STEPS:
            break
        q_next = min(1.0, q_cur + dq)
    report.final_q = q_cur
    report.success = q_cur >= 1.0
    return h, report


@dataclass(frozen=True)
class SweepEntry:
    """One configuration of the comparison matrix. Its row is labelled
    with solver_cfg.method and cont_cfg.kind, the configs that run."""

    scheme: str
    solver_cfg: SolverConfig
    cont_cfg: ContinuationConfig

    def __post_init__(self):
        _check_scheme(self.scheme)  # raises, naming the supported schemes


@dataclass
class SweepRow:
    """One entry's result. outcome is "ok", "fail", or "refused" when
    the entry's scheme could not be built; wall_seconds times the
    continuation alone; final_q is the last accepted level."""

    scheme: str
    solver: str
    kind: str
    outcome: str
    wall_seconds: float
    cont_success: int
    cont_failed: int
    total_iters: int
    final_q: float


def make_entries(schemes, solvers, kinds, base_solver_cfg=None,
                 base_cont_cfg=None):
    """Cross product of schemes x solver methods x continuation kinds.
    Every method and kind is validated, even with no scheme."""
    solver_cfgs = [replace(base_solver_cfg or SolverConfig(), method=m)
                   for m in solvers]
    cont_cfgs = [replace(base_cont_cfg or ContinuationConfig(), kind=k)
                 for k in kinds]
    return [SweepEntry(scheme, sc, cc)
            for scheme in schemes for sc in solver_cfgs for cc in cont_cfgs]


def sweep(spec, entries):
    """Run every configuration in order; failures are data.

    Each scheme's Discretization is built once, when its first entry
    runs, and all of that scheme's entries run on it: its stencils,
    pattern, ordering and flux operator depend only on (spec, scheme),
    and the last three, which a Discretization builds on first use, are
    built with it, before the first timed continuation.
    A scheme whose build raises AssemblyError is refused: the reason is
    logged once and each of its entries is a row with outcome "refused",
    zero counts, final_q 0 and wall_seconds 0. Setup is in no row's
    wall_seconds.

    Returns a list of SweepRow in the order of `entries`.
    """
    discs = {}
    rows = []
    for entry in entries:
        if entry.scheme not in discs:
            try:
                disc = Discretization(spec, entry.scheme)
            except AssemblyError as exc:
                logger.warning("scheme %s refused: %s", entry.scheme, exc)
                disc = None
            else:  # built now, so that no row times them
                disc.pattern, disc.flux_op, disc.order
            discs[entry.scheme] = disc
        disc = discs[entry.scheme]
        labels = (entry.scheme, entry.solver_cfg.method, entry.cont_cfg.kind)
        if disc is None:
            rows.append(SweepRow(*labels, "refused", 0.0, 0, 0, 0, 0.0))
            continue
        t0 = time.perf_counter()
        _, report = run_continuation(disc, entry.solver_cfg, entry.cont_cfg)
        wall = time.perf_counter() - t0
        rows.append(SweepRow(
            *labels, outcome="ok" if report.success else "fail",
            wall_seconds=wall, cont_success=report.n_success,
            cont_failed=report.n_failed,
            total_iters=report.total_iterations, final_q=report.final_q))
    return rows
