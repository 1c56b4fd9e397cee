"""Nonlinear solver behavior: steps, line search, stopping, traces."""

import re
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sps

import richardsfv.solvers as solvers_mod
from richardsfv.benchmarks import build_dam
from richardsfv.constitutive import UnconfinedParams, VgmParams
from richardsfv.discretization import Discretization
from richardsfv.solvers import (CONVERGED, DIVERGED, LINE_SEARCH_FAILED,
                                LINEAR_SOLVE_FAILED, MAX_ITERATIONS,
                                OMEGA_MIN, LineSearchConfig, SolverConfig,
                                WarmupConfig, armijo_line_search, newton_step,
                                picard_step, solve_nonlinear)
from richardsfv.linalg import solve


@pytest.fixture(scope="module")
def dam400():
    spec = build_dam("unconfined", "400")
    disc = Discretization(spec, "tpfa")
    h0, tr = solve_nonlinear(disc, np.full(400, 6.0), 0.0, "linear",
                             SolverConfig(method="newton"))
    assert tr.outcome == CONVERGED
    return disc, h0


# -- single steps ---------------------------------------------------------

def test_newton_one_step_solves_linear_problem(dam400):
    disc, _ = dam400
    h, trace = solve_nonlinear(disc, np.full(400, 6.0), 0.0, "linear",
                               SolverConfig(method="newton"))
    assert trace.outcome == CONVERGED
    assert trace.iterations == 1
    b = disc.assemble(h, 0.0, "linear").b
    assert trace.final.resinf <= 1e-9 * np.abs(b).max()


def test_newton_step_vanishes_at_solution(dam400):
    disc, h_star = dam400
    dh, rep = newton_step(disc, h_star, 0.0, "linear")
    assert np.abs(dh).max() <= 1e-9 * np.abs(h_star).max()
    assert not rep.breakdown


def test_picard_equals_newton_at_q0(dam400):
    disc, _ = dam400
    h = np.full(400, 6.0)
    dn, _ = newton_step(disc, h, 0.0, "linear")
    dp, _ = picard_step(disc, h, 0.0, "linear")
    np.testing.assert_allclose(dn, dp, rtol=1e-12)


def test_picard_update_form_equals_classical_form():
    # A(h) dh = -F(h) followed by h + dh reproduces A(h) h_new = b(h)
    spec = build_dam("vgm", "cartesian:4x4")
    disc = Discretization(spec, "tpfa")
    rng = np.random.default_rng(2)
    h = rng.uniform(2.0, 10.0, 16)
    asm = disc.assemble(h, 1.0, "linear")
    classical, _ = solve(asm.A, asm.b)
    dh, _ = picard_step(disc, h, 1.0, "linear")
    update = h + dh
    assert np.abs(update - classical).max() <= 1e-10 * np.abs(h).max()


def test_early_return_at_exact_solution(dam400):
    disc, h_star = dam400
    h, trace = solve_nonlinear(disc, h_star, 0.0, "linear",
                               SolverConfig(method="newton"))
    assert trace.outcome == CONVERGED
    assert trace.iterations == 0
    assert np.array_equal(h, h_star)


# -- Armijo line search ---------------------------------------------------

class ScalarSquare:
    """F(h) = h^2 on one unknown; counts residual evaluations."""

    n_cells = 1

    def __init__(self):
        self.calls = 0

    def residual(self, h, q, kind):
        self.calls += 1
        return np.array([h[0] ** 2])


def test_armijo_accepts_full_step_on_quadratic():
    # |F(1 - 1.5)| = 0.25 < (1 - 1e-4) * 1 at omega = 1
    stub = ScalarSquare()
    omega, backtracks, F_new = armijo_line_search(
        stub, np.array([1.0]), np.array([-1.5]), 1.0, "linear",
        SolverConfig())
    assert omega == 1.0
    assert backtracks == 0
    assert F_new[0] == pytest.approx(0.25)


class Uphill:
    """Residual norm grows along every direction."""

    n_cells = 1

    def __init__(self):
        self.calls = 0

    def residual(self, h, q, kind):
        self.calls += 1
        return np.array([1.0 + h[0] ** 2])


def test_armijo_exhaustion_trial_count():
    stub = Uphill()
    cfg = SolverConfig()
    omega, backtracks, F_new = armijo_line_search(
        stub, np.array([0.0]), np.array([1.0]), 1.0, "linear", cfg,
        res2=1.0)
    assert omega is None
    assert F_new is None
    assert backtracks == 10
    # exactly 11 residual evaluations: trial omegas 1, 0.25, ...,
    # 0.25**10 = OMEGA_MIN, the floor included
    assert stub.calls == 11


def test_armijo_omega_min_value():
    assert OMEGA_MIN == pytest.approx(9.5367431640625e-7)
    assert OMEGA_MIN == LineSearchConfig().gamma ** 10


@pytest.mark.parametrize("gamma, backtracks", [(0.5, 20), (0.1, 6)])
def test_armijo_floor_fixes_trial_count(gamma, backtracks):
    # the floor does not move with gamma: 0.5**20 = OMEGA_MIN is still
    # tried, and 0.1**6 by repeated multiplication, 1.0000000000000004e-06,
    # is the last trial above it
    stub = Uphill()
    cfg = SolverConfig(line_search=LineSearchConfig(gamma=gamma))
    omega, bt, F_new = armijo_line_search(
        stub, np.array([0.0]), np.array([1.0]), 1.0, "linear", cfg,
        res2=1.0)
    assert (omega, bt, F_new) == (None, backtracks, None)
    assert stub.calls == backtracks + 1


def test_line_search_has_no_max_backtracks():
    with pytest.raises(TypeError):
        LineSearchConfig(max_backtracks=20)


def test_armijo_requires_nonzero_residual():
    stub = ScalarSquare()
    with pytest.raises(ValueError):
        armijo_line_search(stub, np.array([0.0]), np.array([1.0]),
                           1.0, "linear", SolverConfig(), res2=0.0)


# -- full solves -----------------------------------------------------------

def test_mixed_phases_and_warmup_omegas(dam400):
    disc, h0 = dam400
    cfg = SolverConfig(method="mixed", nit_pic=3,
                       warmup=WarmupConfig(nit_nls=2, omega_fixed=0.1))
    h, trace = solve_nonlinear(disc, np.full(400, 6.0), 1.0, "linear", cfg)
    assert trace.outcome == CONVERGED
    phases = [r.phase for r in trace.records]
    assert phases[0] == "init"
    assert phases[1] == phases[2] == phases[3] == "picard"
    assert all(p == "newton" for p in phases[4:])
    assert trace.records[1].omega == 0.1
    assert trace.records[2].omega == 0.1
    assert not trace.records[1].ls_used
    assert trace.records[3].ls_used  # picard beyond warm-up uses Armijo


def test_mixed_zero_picard_identical_to_newton(dam400):
    disc, h0 = dam400
    cfg_m = SolverConfig(method="mixed", nit_pic=0,
                         warmup=WarmupConfig(nit_nls=0))
    cfg_n = SolverConfig(method="newton")
    h1, t1 = solve_nonlinear(disc, h0, 1.0, "linear", cfg_m)
    h2, t2 = solve_nonlinear(disc, h0, 1.0, "linear", cfg_n)
    assert t1.outcome == t2.outcome
    assert t1.records == t2.records
    assert np.array_equal(h1, h2)


def test_picard_and_newton_reach_same_solution(dam400):
    disc, h0 = dam400
    cfg = SolverConfig(method="picard")
    hp, tp = solve_nonlinear(disc, h0, 1.0, "linear", cfg)
    hn, tn = solve_nonlinear(disc, h0, 1.0, "linear",
                             SolverConfig(method="newton"))
    assert tp.outcome == CONVERGED and tn.outcome == CONVERGED
    tol = 10.0 * max(cfg.eps_abs, cfg.eps_rel * np.abs(hp).max())
    assert np.abs(hp - hn).max() <= tol


def test_armijo_decrease_replay_from_trace(dam400):
    disc, h0 = dam400
    cfg = SolverConfig(method="picard")
    _, trace = solve_nonlinear(disc, h0, 1.0, "power", cfg)
    assert trace.outcome == CONVERGED
    alpha = cfg.line_search.alpha
    for prev, cur in zip(trace.records, trace.records[1:]):
        if cur.ls_used and cur.accepted:
            assert cur.res2 < (1.0 - alpha * cur.omega) * prev.res2


def test_divergence_outcome(dam400, monkeypatch):
    disc, _ = dam400
    monkeypatch.setattr(solvers_mod, "EPS_DIV", 1e-12)
    cfg = SolverConfig(method="newton")
    _, trace = solve_nonlinear(disc, np.full(400, 6.0), 1.0, "linear", cfg)
    assert trace.outcome == DIVERGED
    assert any(r.res2 > solvers_mod.EPS_DIV for r in trace.records)


def test_max_iterations_outcome(dam400):
    disc, _ = dam400
    cfg = SolverConfig(method="picard", nit_max=2, eps_rel=1e-12,
                       eps_abs=1e-14)
    _, trace = solve_nonlinear(disc, np.full(400, 6.0), 1.0, "power", cfg)
    assert trace.outcome == MAX_ITERATIONS
    assert trace.iterations == 2
    assert len(trace.records) <= cfg.nit_max + 1


def test_determinism(dam400):
    disc, h0 = dam400
    cfg = SolverConfig(method="mixed")
    _, t1 = solve_nonlinear(disc, h0, 1.0, "power", cfg)
    _, t2 = solve_nonlinear(disc, h0, 1.0, "power", cfg)
    assert t1.records == t2.records
    assert t1.outcome == t2.outcome


class SingularJacobian:
    n_cells = 2
    order = None

    def residual(self, h, q, kind):
        return np.array([1.0, 1.0])

    def assemble_jacobian(self, h, q, kind, with_residual=False):
        J = sps.csr_matrix((2, 2))
        return (J, self.residual(h, q, kind)) if with_residual else J


def test_linear_solve_failure_outcome():
    stub = SingularJacobian()
    _, trace = solve_nonlinear(stub, np.zeros(2), 1.0, "linear",
                               SolverConfig(method="newton"))
    assert trace.outcome == LINEAR_SOLVE_FAILED


class UphillSystem:
    """Grows in every direction: line search must fail."""

    n_cells = 1
    order = None

    def residual(self, h, q, kind):
        return np.array([1.0 + h[0] ** 2])

    def assemble_jacobian(self, h, q, kind, with_residual=False):
        J = sps.csr_matrix(np.array([[1.0]]))
        return (J, self.residual(h, q, kind)) if with_residual else J


def test_line_search_failed_outcome():
    cfg = SolverConfig(method="newton",
                       line_search=LineSearchConfig(enabled_after=0))
    h, trace = solve_nonlinear(UphillSystem(), np.zeros(1), 1.0, "linear",
                               cfg)
    assert trace.outcome == LINE_SEARCH_FAILED
    assert not trace.final.accepted
    assert trace.final.omega == 0.0
    assert h[0] == 0.0  # iterate not updated by the failed step


class NanAfterStep:
    """A finite residual at the guess, NaN after any step."""

    n_cells = 1
    order = None

    def residual(self, h, q, kind):
        return np.array([1.0 if h[0] == 0.0 else np.nan])

    def assemble_jacobian(self, h, q, kind, with_residual=False):
        J = sps.csr_matrix(np.array([[1.0]]))
        return (J, self.residual(h, q, kind)) if with_residual else J


def test_nan_after_full_step_diverges():
    # pure Newton's first steps are full ones, with no search to refuse
    # a NaN: the run records inf and ends diverged, not at nit_max
    _, trace = solve_nonlinear(NanAfterStep(), np.zeros(1), 1.0, "linear",
                               SolverConfig(method="newton"))
    assert trace.outcome == DIVERGED
    assert trace.iterations == 1
    assert not trace.final.ls_used and trace.final.omega == 1.0
    assert trace.final.res2 == trace.final.resinf == np.inf


def test_newton_skips_line_search_first_iterations(dam400):
    disc, _ = dam400
    cfg = SolverConfig(method="newton", eps_rel=1e-13, eps_abs=1e-13)
    _, trace = solve_nonlinear(disc, np.full(400, 6.0), 1.0, "power", cfg)
    for r in trace.records[1:cfg.line_search.enabled_after + 1]:
        assert not r.ls_used
        assert r.omega == 1.0


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="broyden")
    with pytest.raises(ValueError):
        SolverConfig(eps_rel=2.0)
    with pytest.raises(ValueError):
        SolverConfig(eps_abs=0.0)
    # at eps_abs = inf every level would "converge" at iteration 0
    with pytest.raises(ValueError, match=re.escape(
            "eps_abs must be positive and finite, got inf") + "$"):
        SolverConfig(eps_abs=float("inf"))
    with pytest.raises(ValueError):
        SolverConfig(nit_max=0)
    with pytest.raises(TypeError):
        SolverConfig(eps_div=1e10)  # the constant EPS_DIV, not a field
    with pytest.raises(ValueError):
        LineSearchConfig(gamma=0.0)
    with pytest.raises(ValueError,
                       match=r"^gamma must lie in \(0, 0\.5\], got 0\.6$"):
        LineSearchConfig(gamma=0.6)
    with pytest.raises(TypeError):
        LineSearchConfig(alpha=0.5)  # a constant, not a field
    with pytest.raises(ValueError):
        WarmupConfig(omega_fixed=0.0)


@pytest.mark.parametrize("make, name, message", [
    (SolverConfig, "eps_abs", "eps_abs must be positive and finite, got nan"),
    (SolverConfig, "eps_rel", "eps_rel must lie in (0, 1), got nan"),
    (LineSearchConfig, "gamma", "gamma must lie in (0, 0.5], got nan"),
    (partial(VgmParams, theta_r=0.05, theta_s=0.4, alpha=1.0, n=1.2),
     "alpha", "alpha must be positive, got nan"),
    (partial(VgmParams, theta_r=0.05, theta_s=0.4, alpha=1.0, n=1.2),
     "n", "n must exceed 1, got nan"),
    (UnconfinedParams, "alpha_theta", "alpha_theta must be positive, got nan"),
])
def test_nan_fails_the_range_checks(make, name, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(**{name: float("nan")})


def test_trace_rows_shape(dam400):
    disc, h0 = dam400
    _, trace = solve_nonlinear(disc, h0, 1.0, "linear",
                               SolverConfig(method="mixed"))
    rows = trace.rows()
    assert rows[0][0] == 0 and rows[0][1] == "init"
    assert len(rows) == trace.iterations + 1
    assert all(len(r) == 7 for r in rows)


def test_newton_step_from_flat_guess_decreases_residual():
    # one step from h = 10 on the small VGM dam: either the full step
    # already reduces ||F||_2 or the line search engages and enforces it
    spec = build_dam("vgm", "cartesian:4x4")
    disc = Discretization(spec, "tpfa")
    h = np.full(16, 10.0)
    r0 = float(np.linalg.norm(disc.residual(h, 1.0, "linear")))
    dh, _ = newton_step(disc, h, 1.0, "linear")
    r_full = float(np.linalg.norm(disc.residual(h + dh, 1.0, "linear")))
    if r_full >= r0:
        omega, _, F_new = armijo_line_search(
            disc, h, dh, 1.0, "linear", SolverConfig(), res2=r0)
        assert omega is not None
        assert float(np.linalg.norm(F_new)) < r0
    else:
        assert r_full < r0
