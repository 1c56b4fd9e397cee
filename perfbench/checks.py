"""Correctness check of a solved repetition.

The check recomputes what the solver claims about its answer instead of
trusting the trace: the stopping test on a freshly assembled residual,
and agreement of that residual with the flux balance accumulated through
the mesh adjacency, which shares no scatter code with the residual.
"""

import numpy as np

from richardsfv import solvers

OUTCOMES = frozenset((solvers.CONVERGED, solvers.MAX_ITERATIONS,
                      solvers.DIVERGED, solvers.LINE_SEARCH_FAILED,
                      solvers.LINEAR_SOLVE_FAILED))

# |F - flux imbalance| allowed, relative to the largest face flux; both
# sum the same face fluxes in different orders.
BALANCE_RTOL = 1e-10


def check_solution(disc, h, report, cfg, kind):
    """Problems with the head a continuation returned; [] passes.

    The returned head is the last accepted state, at q = report.final_q
    (q = 1 for a converged run). The solver's stopping test,
    ||F||_inf < eps_abs or ||F||_2 < eps_rel ||F(h0)||_2 with h0 that
    step's initial guess, must hold for F recomputed at that state.
    """
    problems = []
    if not np.all(np.isfinite(h)):
        problems.append("head has non-finite entries")
    unknown = {s.outcome for s in report.steps} - OUTCOMES
    if unknown:
        problems.append(f"unnamed solver outcomes {sorted(unknown)}")
    q = report.final_q
    accepted = [s for s in report.steps if s.success and s.q_target == q]
    if not accepted:
        problems.append(f"no converged step at final q = {q}")
        return problems

    F = disc.residual(h, q, kind)
    res2 = float(np.linalg.norm(F))
    resinf = float(np.abs(F).max())
    res2_0 = accepted[-1].trace.records[0].res2
    if not (resinf < cfg.eps_abs or res2 < cfg.eps_rel * res2_0):
        problems.append(
            f"stopping test fails at q = {q}: ||F||_inf = {resinf:.3e}, "
            f"||F||_2 = {res2:.3e}, ||F(h0)||_2 = {res2_0:.3e}")

    imbalance = disc.flux_imbalance(h, q, kind)
    scale = max(1.0, float(np.abs(disc.face_fluxes(h, q, kind)).max()))
    gap = float(np.abs(imbalance - F).max())
    if not gap <= BALANCE_RTOL * scale:
        problems.append(f"residual and flux imbalance differ by {gap:.3e}")
    return problems


def rejects_perturbation(disc, h, report, cfg, kind, delta=1e-3):
    """True when the check fails a head moved by delta (m) in one cell,
    which shows it can fail at all."""
    bad = np.array(h, dtype=float, copy=True)
    bad[len(bad) // 2] += delta
    return bool(check_solution(disc, bad, report, cfg, kind))
