"""Newton, Picard and mixed Picard-Newton iterations with line search.

All solvers share the update form: a linear system gives the update
direction, then h <- h + omega * dh. The step matrix is the Jacobian
(Newton) or the frozen-coefficient Picard matrix. Omega comes from a
fixed-relaxation warm-up, a full step, or backtracking line search under
the Armijo acceptance test on ||F||_2. Every run returns a full
convergence trace; failures are encoded in the trace outcome rather
than raised. Each entry point takes a prebuilt Discretization, which
holds the problem and the flux scheme.
"""

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import linalg

__all__ = [
    "LineSearchConfig",
    "WarmupConfig",
    "SolverConfig",
    "IterationRecord",
    "ConvergenceTrace",
    "newton_step",
    "picard_step",
    "armijo_line_search",
    "solve_nonlinear",
    "OMEGA_MIN",
    "EPS_DIV",
    "CONVERGED",
    "MAX_ITERATIONS",
    "DIVERGED",
    "LINE_SEARCH_FAILED",
    "LINEAR_SOLVE_FAILED",
]

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
DIVERGED = "diverged"
LINE_SEARCH_FAILED = "line_search_failed"
LINEAR_SOLVE_FAILED = "linear_solve_failed"

METHODS = ("newton", "picard", "mixed")
OMEGA_MIN = 2.0 ** -20  # the Armijo step floor: 0.25**10, 0.5**20
EPS_DIV = 1e15  # ||F||_2 above this is divergence


@dataclass(frozen=True)
class LineSearchConfig:
    """Armijo backtracking controls.

    enabled_after skips line search for the first iterations of pure
    Newton runs (full steps instead); gamma, the backtracking factor, is
    at most 0.5, as the trials stop only at the fixed floor OMEGA_MIN
    (132 of them at 0.9); alpha, the sufficient-decrease factor, is fixed.
    """

    enabled_after: int = 5
    alpha: ClassVar[float] = 1e-4
    gamma: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.gamma <= 0.5:
            raise ValueError(f"gamma must lie in (0, 0.5], got {self.gamma}")
        if self.enabled_after < 0:
            raise ValueError("enabled_after must be nonnegative")


@dataclass(frozen=True)
class WarmupConfig:
    """Fixed-relaxation start: nit_nls iterations at omega_fixed with no
    line search (coinciding with the Picard phase in mixed runs)."""

    nit_nls: int = 0
    omega_fixed: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.omega_fixed <= 1.0:
            raise ValueError(
                f"omega_fixed must lie in (0, 1], got {self.omega_fixed}")
        if self.nit_nls < 0:
            raise ValueError("nit_nls must be nonnegative")


@dataclass(frozen=True)
class SolverConfig:
    """Nonlinear solver controls; defaults follow the dam benchmarks."""

    method: str = "mixed"
    nit_pic: int = 5
    eps_rel: float = 1e-5
    eps_abs: float = 1e-6
    nit_max: int = 50
    line_search: LineSearchConfig = field(default_factory=LineSearchConfig)
    warmup: WarmupConfig = field(default_factory=WarmupConfig)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r} "
                f"(supported: {', '.join(METHODS)})")
        if not 0.0 < self.eps_rel < 1.0:
            raise ValueError(f"eps_rel must lie in (0, 1), got {self.eps_rel}")
        if not 0.0 < self.eps_abs < np.inf:
            raise ValueError(
                f"eps_abs must be positive and finite, got {self.eps_abs}")
        if self.nit_pic < 0 or self.nit_max < 1:
            raise ValueError("need nit_pic >= 0 and nit_max >= 1")

    @property
    def pure_newton(self):
        """True when every step is Newton; Picard steps come first."""
        return _phase(self, 1) == "newton"


@dataclass
class IterationRecord:
    iteration: int
    phase: str  # "init", "picard" or "newton"
    res2: float
    resinf: float
    omega: float
    backtracks: int
    lin_res: float  # relative residual of the step's linear solve
    ls_used: bool = False
    accepted: bool = True


@dataclass
class ConvergenceTrace:
    """Per-iteration history plus the terminal outcome."""

    records: list = field(default_factory=list)
    outcome: str = MAX_ITERATIONS

    @property
    def iterations(self):
        return len(self.records) - 1  # record 0 is the initial state

    @property
    def final(self):
        return self.records[-1]

    def rows(self):
        """CSV-ready rows: iter, phase, res2, resinf, omega, backtracks,
        linres."""
        return [(r.iteration, r.phase, r.res2, r.resinf, r.omega,
                 r.backtracks, r.lin_res) for r in self.records]


def newton_step(disc, h, q, kind):
    """Solve J(h) dh = -F(h); returns (dh, linear report)."""
    J, F = disc.assemble_jacobian(h, q, kind, with_residual=True)
    return linalg.solve(J, -F, disc.order)


def picard_step(disc, h, q, kind):
    """Solve A(h) dh = -F(h), the update form of A(h) h_new = b(h)."""
    asm = disc.assemble(h, q, kind)
    return linalg.solve(asm.A, -asm.F, disc.order)


def armijo_line_search(disc, h, dh, q, kind, cfg=None, res2=None):
    """Backtracking line search under ||F(h + w dh)||_2 < (1 - a w) ||F(h)||_2.

    Tries omega = 1, gamma, gamma**2, ... (repeated multiplication)
    while omega >= OMEGA_MIN. Returns (omega, backtracks, F_new) on
    acceptance and (None, backtracks tried, None) when every trial fails.
    """
    cfg = cfg or SolverConfig()
    ls = cfg.line_search
    if res2 is None:
        res2 = float(np.linalg.norm(disc.residual(h, q, kind)))
    if res2 <= 0.0:
        raise ValueError("line search requires a nonzero residual")
    omega, bt = 1.0, 0
    while omega >= OMEGA_MIN:
        F_new = disc.residual(h + omega * dh, q, kind)
        if float(np.linalg.norm(F_new)) < (1.0 - ls.alpha * omega) * res2:
            return omega, bt, F_new
        omega *= ls.gamma
        bt += 1
    return None, bt - 1, None


def _phase(cfg, k):
    if cfg.method == "picard":
        return "picard"
    if cfg.method == "mixed" and k <= cfg.nit_pic:
        return "picard"
    return "newton"


def solve_nonlinear(disc, h0, q, kind, cfg=None):
    """Run the configured nonlinear iteration at continuation level q.

    Stops when ||F||_2 < eps_rel ||F(h0)||_2 or ||F||_inf < eps_abs;
    also on nit_max, divergence (||F||_2 > EPS_DIV or non-finite), line
    search exhaustion, or a linear solver failure. Returns the final
    iterate and the full trace; no failure raises.
    """
    cfg = cfg or SolverConfig()
    h = np.array(h0, dtype=float, copy=True)
    if len(h) != disc.n_cells:
        raise ValueError(
            f"initial guess has {len(h)} entries for {disc.n_cells} cells")

    F = disc.residual(h, q, kind)
    res2 = float(np.linalg.norm(F))
    resinf = float(np.abs(F).max())
    trace = ConvergenceTrace()
    trace.records.append(IterationRecord(0, "init", res2, resinf, 0.0, 0,
                                         0.0))
    res2_0 = res2

    if resinf < cfg.eps_abs:
        trace.outcome = CONVERGED
        return h, trace

    for k in range(1, cfg.nit_max + 1):
        phase = _phase(cfg, k)
        step = picard_step if phase == "picard" else newton_step
        try:
            dh, rep = step(disc, h, q, kind)
        except linalg.SingularMatrixError:
            trace.outcome = LINEAR_SOLVE_FAILED
            return h, trace

        ls_used = False
        backtracks = 0
        if k <= cfg.warmup.nit_nls:
            omega = cfg.warmup.omega_fixed
        elif cfg.pure_newton and k <= cfg.line_search.enabled_after:
            omega = 1.0
        else:
            ls_used = True
            omega, backtracks, F_new = armijo_line_search(
                disc, h, dh, q, kind, cfg, res2=res2)
            if omega is None:
                trace.records.append(IterationRecord(
                    k, phase, res2, resinf, 0.0, backtracks,
                    rep.rel_residual, ls_used=True, accepted=False))
                trace.outcome = LINE_SEARCH_FAILED
                return h, trace

        h = h + omega * dh
        if ls_used:
            F = F_new
        else:
            F = disc.residual(h, q, kind)
        res2 = float(np.linalg.norm(F))
        resinf = float(np.abs(F).max())
        if not np.isfinite(res2):
            res2 = np.inf
        if not np.isfinite(resinf):
            resinf = np.inf
        trace.records.append(IterationRecord(
            k, phase, res2, resinf, omega, backtracks, rep.rel_residual,
            ls_used=ls_used))

        if res2 > EPS_DIV:
            trace.outcome = DIVERGED
            return h, trace
        if res2 < cfg.eps_rel * res2_0 or resinf < cfg.eps_abs:
            trace.outcome = CONVERGED
            return h, trace

    trace.outcome = MAX_ITERATIONS
    return h, trace
