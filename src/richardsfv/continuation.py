"""Nonlinearity continuation driver and solver-comparison sweeps.

The driver first solves the q = 0 problem (fully saturated, linear for
the linear flux schemes), then walks q toward 1 with an adaptive step:
doubling after a successful nonlinear solve, halving after a failed one,
always restarting a failed step from the last accepted state. Every
attempted step keeps its full convergence trace, which is the data
behind the comparison tables.
"""

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from .constitutive import _kind_code
from .discretization import Discretization
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


@dataclass(frozen=True)
class ContinuationConfig:
    """Adaptive continuation controls.

    kind selects the permeability interpolation ("linear" or "power");
    dq_init is the first step toward q = 1 (1.0 attempts the target
    problem directly). Failed steps shrink dq by `decrease`, successes
    grow it by `increase`; the run aborts once dq < dq_min or the step
    budget is spent.
    """

    kind: str = "linear"
    dq_init: float = 1.0
    decrease: float = 0.5
    increase: float = 2.0
    dq_min: float = 1e-4
    max_steps: int = 100

    def __post_init__(self):
        _kind_code(self.kind)  # raises, naming the supported kinds
        if not 0.0 < self.decrease < 1.0:
            raise ValueError("decrease factor must lie in (0, 1)")
        if self.increase <= 1.0:
            raise ValueError("increase factor must exceed 1")
        if not 0.0 < self.dq_min <= self.dq_init <= 1.0:
            raise ValueError("need 0 < dq_min <= dq_init <= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


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

    The initial guess defaults to the constant mean of the Dirichlet
    boundary heads. Returns (h, ContinuationReport); report.success is
    True only when the q = 1 problem converged. A failed q = 0 stage is
    fatal (no retry), since every later stage depends on its solution.
    """
    solver_cfg = solver_cfg or SolverConfig()
    cont_cfg = cont_cfg or ContinuationConfig()
    kind = cont_cfg.kind

    report = ContinuationReport()
    h = np.array(h0, dtype=float, copy=True) if h0 is not None \
        else np.full(disc.n_cells, float(np.mean(disc.dir_vals)))

    h_init_hash = _state_hash(h)
    h_new, trace = solve_nonlinear(disc, h, 0.0, kind, solver_cfg)
    report.steps.append(StepRecord(0.0, trace.outcome, trace.iterations,
                                   trace, h_init_hash, _state_hash(h_new)))
    if trace.outcome != CONVERGED:
        return h_new, report
    h = h_new

    q_cur = 0.0
    dq = cont_cfg.dq_init
    while q_cur < 1.0:
        if len(report.steps) - 1 >= cont_cfg.max_steps:
            break
        q_next = min(1.0, q_cur + dq)
        guess_hash = _state_hash(h)
        h_try, trace = solve_nonlinear(disc, h, q_next, kind, solver_cfg)
        rec = StepRecord(q_next, trace.outcome, trace.iterations, trace,
                         guess_hash, _state_hash(h_try))
        report.steps.append(rec)
        if rec.success:
            q_cur = q_next
            h = h_try
            dq = dq * cont_cfg.increase
            remaining = 1.0 - q_cur
            if 0.0 < remaining < dq:
                # cap so a failure at q=1 halves to a genuinely new target
                dq = remaining
        else:
            # discard the failed iterate entirely; h stays at the last
            # accepted state
            dq *= cont_cfg.decrease
            if dq < cont_cfg.dq_min:
                break
    report.final_q = q_cur
    report.success = q_cur >= 1.0
    return h, report


@dataclass(frozen=True)
class SweepEntry:
    """One configuration of the comparison matrix."""

    scheme: str
    solver: str  # label, e.g. "newton" / "picard" / "mixed"
    kind: str
    solver_cfg: SolverConfig
    cont_cfg: ContinuationConfig


@dataclass
class SweepRow:
    scheme: str
    solver: str
    kind: str
    outcome: str
    wall_seconds: float
    cont_success: int
    cont_failed: int
    total_iters: int
    report: object = None
    h: object = None


def make_entries(schemes, solvers, kinds, base_solver_cfg=None,
                 base_cont_cfg=None):
    """Cross product of schemes x solver methods x continuation kinds.
    Every method and kind is validated, even with no scheme."""
    from dataclasses import replace
    solver_cfgs = [replace(base_solver_cfg or SolverConfig(), method=m)
                   for m in solvers]
    cont_cfgs = [replace(base_cont_cfg or ContinuationConfig(), kind=k)
                 for k in kinds]
    return [SweepEntry(scheme=scheme, solver=sc.method, kind=cc.kind,
                       solver_cfg=sc, cont_cfg=cc)
            for scheme in schemes for sc in solver_cfgs for cc in cont_cfgs]


def sweep(spec, entries):
    """Run every configuration independently, in order; failures are
    data. Each entry's wall time includes building its discretization.

    Returns a list of SweepRow in the order of `entries`.
    """
    rows = []
    for entry in entries:
        t0 = time.perf_counter()
        h, report = run_continuation(Discretization(spec, entry.scheme),
                                     entry.solver_cfg, entry.cont_cfg)
        wall = time.perf_counter() - t0
        rows.append(SweepRow(
            scheme=entry.scheme, solver=entry.solver, kind=entry.kind,
            outcome="ok" if report.success else "fail", wall_seconds=wall,
            cont_success=report.n_success, cont_failed=report.n_failed,
            total_iters=report.total_iterations, report=report, h=h))
    return rows
