"""Newton, Picard and mixed Picard-Newton iterations with line search.

All solvers share the update form: a linear system gives the update
direction, then h <- h + omega * dh. The step matrix is the Jacobian
(Newton) or the frozen-coefficient Picard matrix. Omega comes from a
fixed-relaxation warm-up, a full step, or backtracking line search under
the Armijo acceptance test on ||F||_2. Picard steps past the warm-up
are Anderson-mixed (Walker & Ni 2011) over the level's last few Picard
updates unless SolverConfig.anderson is 0; a mixed direction that the
line search rejects gives way to the plain Picard update. Every run
returns a full convergence trace; failures are encoded in the trace
outcome rather than raised. Each entry point takes a prebuilt
Discretization, which holds the problem and the flux scheme.
"""

import numbers
from dataclasses import dataclass, field, fields
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
    "anderson_direction",
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


def _check_count(name, value, low):
    """Refuse a count that is not a (numpy) integer >= low; a bool is no
    count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_reals(config, finite=()):
    """Refuse a float field of config that holds a bool or no real
    number, and +inf in the fields named in finite; the range checks
    that follow refuse NaN and -inf."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type is float and (isinstance(value, bool) or
                                not isinstance(value, numbers.Real)):
            raise ValueError(f"{f.name} must be a real number, got {value!r}")
        if f.name in finite and value == np.inf:
            raise ValueError(f"{f.name} must be finite, got {value}")


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
        _check_reals(self)
        if not 0.0 < self.gamma <= 0.5:
            raise ValueError(f"gamma must lie in (0, 0.5], got {self.gamma}")
        _check_count("enabled_after", self.enabled_after, 0)


@dataclass(frozen=True)
class WarmupConfig:
    """Fixed-relaxation start: nit_nls iterations at omega_fixed with no
    line search (coinciding with the Picard phase in mixed runs)."""

    nit_nls: int = 0
    omega_fixed: float = 0.1

    def __post_init__(self):
        _check_reals(self)
        if not 0.0 < self.omega_fixed <= 1.0:
            raise ValueError(
                f"omega_fixed must lie in (0, 1], got {self.omega_fixed}")
        _check_count("nit_nls", self.nit_nls, 0)


@dataclass(frozen=True)
class SolverConfig:
    """Nonlinear solver controls; defaults follow the dam benchmarks.

    anderson is the Anderson mixing depth m of the Picard steps; 0 is
    the paper's plain Picard."""

    method: str = "mixed"
    nit_pic: int = 5
    eps_rel: float = 1e-5
    eps_abs: float = 1e-6
    nit_max: int = 50
    anderson: int = 3
    line_search: LineSearchConfig = field(default_factory=LineSearchConfig)
    warmup: WarmupConfig = field(default_factory=WarmupConfig)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r} "
                f"(supported: {', '.join(METHODS)})")
        _check_reals(self)
        if not 0.0 < self.eps_rel < 1.0:
            raise ValueError(f"eps_rel must lie in (0, 1), got {self.eps_rel}")
        if not 0.0 < self.eps_abs < np.inf:
            raise ValueError(
                f"eps_abs must be positive and finite, got {self.eps_abs}")
        _check_count("nit_pic", self.nit_pic, 0)
        _check_count("nit_max", self.nit_max, 1)
        _check_count("anderson", self.anderson, 0)

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
    # the line search rejected the Anderson-mixed direction and searched
    # the plain Picard update instead; not in rows()
    fallback: bool = False


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


def anderson_direction(history, h, dh, m):
    """The Anderson-mixed Picard direction at h of depth m.

    history holds the level's earlier (h, dh) pairs of mixed Picard
    steps, dh the plain update; (h, dh) joins it and only the last
    m + 1 pairs are kept. With the differences dH and dG of their heads
    and updates, the direction is dh - (dH + dG) g, g minimising
    ||dh - dG g||_2. With no earlier pair, or a non-finite result, it
    is the plain dh.
    """
    history.append((h, dh))
    del history[:-m - 1]
    if len(history) < 2:
        return dh
    H, G = (np.column_stack(x) for x in zip(*history))
    dH, dG = np.diff(H, axis=1), np.diff(G, axis=1)
    g = np.linalg.lstsq(dG, dh, rcond=None)[0]
    mixed = dh - (dH + dG) @ g
    return mixed if np.all(np.isfinite(mixed)) else dh


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
    search exhaustion, or a linear solver failure. A line search that
    rejects an Anderson-mixed direction clears the level's mixing
    history and searches the plain Picard update once; that record is
    flagged fallback, and only if the plain update fails too does the
    level end as line_search_failed. Returns the final iterate and the
    full trace; no failure raises.
    """
    cfg = cfg or SolverConfig()
    h = np.array(h0, dtype=float, copy=True)
    if h.ndim != 1:
        raise ValueError(f"initial guess has shape {h.shape}, "
                         f"expected ({disc.n_cells},)")
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

    # Picard steps all come before the first Newton step, so this
    # history of mixed Picard steps is never used again once Newton starts
    history = []
    for k in range(1, cfg.nit_max + 1):
        phase = _phase(cfg, k)
        step = picard_step if phase == "picard" else newton_step
        try:
            dh, rep = step(disc, h, q, kind)
        except linalg.SingularMatrixError:
            trace.outcome = LINEAR_SOLVE_FAILED
            return h, trace
        plain = dh
        if phase == "picard" and cfg.anderson and k > cfg.warmup.nit_nls:
            dh = anderson_direction(history, h, dh, cfg.anderson)

        ls_used = fallback = False
        backtracks = 0
        if k <= cfg.warmup.nit_nls:
            omega = cfg.warmup.omega_fixed
        elif cfg.pure_newton and k <= cfg.line_search.enabled_after:
            omega = 1.0
        else:
            ls_used = True
            omega, backtracks, F_new = armijo_line_search(
                disc, h, dh, q, kind, cfg, res2=res2)
            if omega is None and dh is not plain:
                # the mixed direction failed: restart the mixing from
                # the plain update, and search that once
                history.clear()
                dh, fallback = plain, True
                omega, backtracks, F_new = armijo_line_search(
                    disc, h, dh, q, kind, cfg, res2=res2)
            if omega is None:
                trace.records.append(IterationRecord(
                    k, phase, res2, resinf, 0.0, backtracks,
                    rep.rel_residual, ls_used=True, accepted=False,
                    fallback=fallback))
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
            ls_used=ls_used, fallback=fallback))

        if res2 > EPS_DIV:
            trace.outcome = DIVERGED
            return h, trace
        if res2 < cfg.eps_rel * res2_0 or resinf < cfg.eps_abs:
            trace.outcome = CONVERGED
            return h, trace

    trace.outcome = MAX_ITERATIONS
    return h, trace
