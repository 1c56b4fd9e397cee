"""Continuation driver: step policy, bookkeeping, reports, sweeps."""

import logging

import numpy as np
import pytest

import richardsfv.continuation as cont_mod
from richardsfv.benchmarks import build_dam, build_verification_linear
from richardsfv.continuation import (ContinuationConfig, SweepEntry,
                                     make_entries, run_continuation, sweep)
from richardsfv.discretization import Discretization
from richardsfv.mesh import gen_cartesian
from richardsfv.solvers import (CONVERGED, MAX_ITERATIONS, ConvergenceTrace,
                                SolverConfig)


@pytest.fixture(scope="module")
def dam_disc():
    return Discretization(build_dam("unconfined", "400"), "tpfa")


def test_one_step_when_solver_strong(dam_disc):
    h, rep = run_continuation(dam_disc, SolverConfig(method="mixed"),
                              ContinuationConfig(kind="linear"))
    assert rep.success
    assert rep.n_success == 1
    assert rep.n_failed == 0
    assert rep.steps[0].q_target == 0.0
    assert rep.steps[-1].q_target == 1.0
    assert rep.final_q == 1.0


def test_forced_failure_bookkeeping(dam_disc):
    # nit_max=4 is too tight for the direct q=1 Newton solve but enough
    # for q=0.5 and the restart from there
    cfg = SolverConfig(method="newton", nit_max=4)
    h, rep = run_continuation(dam_disc, cfg, ContinuationConfig())
    assert rep.success
    assert rep.n_success == 2
    assert rep.n_failed == 1
    q_seq = [s.q_target for s in rep.steps]
    assert q_seq == [0.0, 1.0, 0.5, 1.0]
    assert not rep.steps[1].success
    # failed iterations still count toward the total
    assert rep.total_iterations == sum(s.iterations for s in rep.steps)
    assert rep.steps[1].iterations == 4


def test_q_nondecreasing_and_capped(dam_disc):
    cfg = SolverConfig(method="newton", nit_max=3)
    _, rep = run_continuation(dam_disc, cfg, ContinuationConfig())
    succ_q = [s.q_target for s in rep.steps[1:] if s.success]
    assert all(b >= a for a, b in zip(succ_q, succ_q[1:]))
    assert all(s.q_target <= 1.0 for s in rep.steps)


def test_state_hash_chain(dam_disc):
    cfg = SolverConfig(method="newton", nit_max=4)
    _, rep = run_continuation(dam_disc, cfg, ContinuationConfig())
    last_final = rep.steps[0].final_hash  # q=0 stage
    for s in rep.steps[1:]:
        assert s.initial_hash == last_final
        if s.success:
            last_final = s.final_hash


def test_kinds_share_q0_trace(dam_disc):
    cfg = SolverConfig(method="mixed")
    _, rl = run_continuation(dam_disc, cfg, ContinuationConfig(kind="linear"))
    _, rp = run_continuation(dam_disc, cfg, ContinuationConfig(kind="power"))
    assert rl.steps[0].trace.records == rp.steps[0].trace.records
    assert rl.steps[0].final_hash == rp.steps[0].final_hash


def test_fully_saturated_problem_trivial_q1_step():
    # kr = 1 everywhere: the q=0 solution already solves q=1
    mesh = gen_cartesian(5, 5, 1.0, 1.0)
    spec, _ = build_verification_linear(mesh, np.diag([1.0, 1.0]),
                                        a=0.5, b=1.0, c=20.0)
    h, rep = run_continuation(Discretization(spec, "tpfa"),
                              SolverConfig(method="newton"),
                              ContinuationConfig())
    assert rep.success
    assert len(rep.steps) == 2
    assert rep.steps[1].iterations == 0


def _scripted(outcomes):
    """Monkeypatch-ready solve_nonlinear with per-q scripted outcomes."""
    calls = []

    def fake(disc, h0, q, kind, cfg=None):
        tr = ConvergenceTrace()
        tr.outcome = outcomes(q, len(calls))
        tr.records = [None]  # iterations == 0
        calls.append(q)
        return np.asarray(h0) + 1.0, tr

    return fake, calls


def test_scripted_step_halving(dam_disc, monkeypatch):
    # fail the first q=1 attempt, then succeed: 2 successful, 1 failed
    def outcomes(q, n):
        if q == 0.0:
            return CONVERGED
        return MAX_ITERATIONS if n == 1 else CONVERGED

    fake, calls = _scripted(outcomes)
    monkeypatch.setattr(cont_mod, "solve_nonlinear", fake)
    _, rep = run_continuation(dam_disc, SolverConfig(), ContinuationConfig())
    assert calls == [0.0, 1.0, 0.5, 1.0]
    assert rep.success and rep.n_success == 2 and rep.n_failed == 1


def test_scripted_dq_doubles_after_a_success(dam_disc, monkeypatch):
    # fail the first attempts at q = 1 and q = 0.5: dq halves to 0.25,
    # then doubles after an accepted level (0.25 -> 0.5, q = 0.75); the
    # next doubling is capped at 1 - q = 0.25
    def outcomes(q, n):
        return MAX_ITERATIONS if n in (1, 2) else CONVERGED

    fake, calls = _scripted(outcomes)
    monkeypatch.setattr(cont_mod, "solve_nonlinear", fake)
    _, rep = run_continuation(dam_disc, SolverConfig(), ContinuationConfig())
    assert calls == [0.0, 1.0, 0.5, 0.25, 0.75, 1.0]
    assert rep.success and rep.n_success == 3 and rep.n_failed == 2


def test_scripted_dq_floor_abort(dam_disc, monkeypatch):
    def outcomes(q, n):
        return CONVERGED if q == 0.0 else MAX_ITERATIONS

    fake, calls = _scripted(outcomes)
    monkeypatch.setattr(cont_mod, "solve_nonlinear", fake)
    monkeypatch.setattr(cont_mod, "DQ_MIN", 1e-2)
    _, rep = run_continuation(dam_disc, SolverConfig(), ContinuationConfig())
    assert not rep.success
    assert rep.final_q == 0.0
    assert rep.n_success == 0
    # dq halves from 1.0 until it drops below 1e-2: 7 failed attempts
    assert rep.n_failed == 7


def test_scripted_budget_abort(dam_disc, monkeypatch):
    def outcomes(q, n):
        return CONVERGED if q == 0.0 else MAX_ITERATIONS

    fake, _ = _scripted(outcomes)
    monkeypatch.setattr(cont_mod, "solve_nonlinear", fake)
    monkeypatch.setattr(cont_mod, "DQ_MIN", 1e-12)
    monkeypatch.setattr(cont_mod, "MAX_STEPS", 5)
    _, rep = run_continuation(dam_disc, SolverConfig(), ContinuationConfig())
    assert not rep.success
    assert rep.n_failed == 5


def test_q0_failure_is_fatal(dam_disc, monkeypatch):
    def outcomes(q, n):
        return MAX_ITERATIONS

    fake, calls = _scripted(outcomes)
    monkeypatch.setattr(cont_mod, "solve_nonlinear", fake)
    _, rep = run_continuation(dam_disc, SolverConfig(), ContinuationConfig())
    assert not rep.success
    assert len(rep.steps) == 1
    assert calls == [0.0]


def test_q0_failure_returns_q0_iterate(dam_disc, monkeypatch):
    fake, _ = _scripted(lambda q, n: MAX_ITERATIONS)
    monkeypatch.setattr(cont_mod, "solve_nonlinear", fake)
    h, rep = run_continuation(dam_disc, SolverConfig(), ContinuationConfig())
    h_dir = dam_disc.bc[dam_disc.is_dir]
    h0 = np.full(dam_disc.n_cells, float(np.mean(h_dir)))
    np.testing.assert_array_equal(h, h0 + 1.0)
    assert rep.final_q == 0.0 and not rep.success
    assert rep.steps[0].final_hash == cont_mod._state_hash(h0 + 1.0)


def test_one_state_hash_per_attempt_plus_guess(dam_disc, monkeypatch):
    # the guess of an attempt is the last accepted state, whose hash is
    # that step's final_hash: k attempts hash k + 1 states
    def outcomes(q, n):
        return MAX_ITERATIONS if n == 1 else CONVERGED

    fake, calls = _scripted(outcomes)
    monkeypatch.setattr(cont_mod, "solve_nonlinear", fake)
    hashed = []
    state_hash = cont_mod._state_hash
    monkeypatch.setattr(cont_mod, "_state_hash",
                        lambda h: hashed.append(1) or state_hash(h))
    _, rep = run_continuation(dam_disc, SolverConfig(), ContinuationConfig())
    assert calls == [0.0, 1.0, 0.5, 1.0]
    assert len(hashed) == len(rep.steps) + 1 == 5
    assert [s.initial_hash for s in rep.steps[1:]] == \
        [rep.steps[0].final_hash] * 2 + [rep.steps[2].final_hash]


def test_clamp_warning_logged_once_per_attempt(monkeypatch, caplog):
    # each of an attempt's three clamping curve evaluations warns; the
    # attempt logs the first, and a call outside a run warns again
    disc = Discretization(build_dam("unconfined", "cartesian:4x4"), "tpfa")
    h_low = np.full(disc.n_cells, 6.0)
    h_low[:3] = -1e9  # three cells below the theta floor
    fake, calls = _scripted(
        lambda q, n: MAX_ITERATIONS if n == 1 else CONVERGED)

    def clamping(disc, h0, q, kind, cfg=None):
        for need_deriv in (True, False, True):
            disc.cell_state(h_low, need_deriv)
        return fake(disc, h0, q, kind, cfg)

    monkeypatch.setattr(cont_mod, "solve_nonlinear", clamping)
    with caplog.at_level(logging.WARNING, logger="richardsfv.constitutive"):
        run_continuation(disc, SolverConfig(), ContinuationConfig())
        disc.cell_state(h_low)
    assert calls == [0.0, 1.0, 0.5, 1.0]
    assert [r.getMessage() for r in caplog.records] == \
        ["unconfined theta floor active in 3 cells"] * 5


def test_initial_guess_is_dirichlet_mean(dam_disc, monkeypatch):
    seen = {}

    def fake(disc, h0, q, kind, cfg=None):
        seen.setdefault("h0", np.array(h0, copy=True))
        tr = ConvergenceTrace()
        tr.outcome = CONVERGED
        tr.records = [None]
        return np.asarray(h0), tr

    monkeypatch.setattr(cont_mod, "solve_nonlinear", fake)
    run_continuation(dam_disc, SolverConfig(), ContinuationConfig())
    # dam: left h=10 on 20 faces, right h=2 on 4 faces -> mean 8.666...
    expect = (10.0 * 20 + 2.0 * 4) / 24
    np.testing.assert_allclose(seen["h0"], expect)


def test_explicit_h0_override(dam_disc):
    h0 = np.full(400, 9.0)
    _, rep = run_continuation(dam_disc, SolverConfig(method="newton"),
                              ContinuationConfig(), h0=h0)
    assert rep.success
    import hashlib
    assert rep.steps[0].initial_hash == \
        hashlib.sha256(h0.tobytes()).hexdigest()[:16]


def test_config_validation():
    with pytest.raises(ValueError):
        ContinuationConfig(kind="cubic")
    # dq's start, factors, floor and the attempt budget are module
    # constants
    for name in ("dq_init", "increase", "decrease", "dq_min", "max_steps"):
        with pytest.raises(TypeError):
            ContinuationConfig(**{name: 1.0})


# -- sweep -----------------------------------------------------------------

def test_sweep_full_matrix():
    spec = build_dam("unconfined", "cartesian:4x4")
    entries = make_entries(["tpfa", "mpfa-o"],
                           ["newton", "picard", "mixed"],
                           ["linear", "power"])
    assert len(entries) == 12
    rows = sweep(spec, entries)
    assert len(rows) == 12
    assert [(r.scheme, r.solver, r.kind) for r in rows] == \
        [(e.scheme, e.solver_cfg.method, e.cont_cfg.kind) for e in entries]
    for r in rows:
        assert r.outcome in ("ok", "fail")
        assert r.total_iters >= 0
        assert r.wall_seconds >= 0.0


def test_sweep_builds_one_discretization_per_scheme(monkeypatch):
    built = []
    init = Discretization.__init__

    def spy(self, spec, scheme="tpfa"):
        built.append(scheme)
        init(self, spec, scheme)

    monkeypatch.setattr(Discretization, "__init__", spy)
    spec = build_dam("unconfined", "cartesian:4x4")
    entries = make_entries(["tpfa", "mpfa-o"], ["newton", "picard", "mixed"],
                           ["linear", "power"])
    assert len(sweep(spec, entries)) == 12
    assert built == ["tpfa", "mpfa-o"]


def test_sweep_times_no_setup(monkeypatch):
    # the pattern a Discretization builds at its first assembly is built
    # before every row's timed continuation, the first one included
    seen = []

    def built(disc, solver_cfg, cont_cfg):
        seen.append(disc.scheme)
        assert "pattern" in vars(disc)
        return run_continuation(disc, solver_cfg, cont_cfg)

    monkeypatch.setattr(cont_mod, "run_continuation", built)
    spec = build_dam("unconfined", "cartesian:4x4")
    entries = make_entries(["tpfa", "mpfa-o"], ["newton", "picard"],
                           ["power"])
    assert [r.outcome for r in sweep(spec, entries)] == ["ok"] * 4
    assert seen == ["tpfa", "tpfa", "mpfa-o", "mpfa-o"]


def test_sweep_labels_rows_with_the_configs_that_run():
    spec = build_dam("unconfined", "cartesian:4x4")
    entry = SweepEntry("tpfa", SolverConfig(method="newton"),
                       ContinuationConfig(kind="power"))
    row, = sweep(spec, [entry])
    assert (row.scheme, row.solver, row.kind) == ("tpfa", "newton", "power")


def test_sweep_entry_checks_its_scheme():
    with pytest.raises(ValueError) as err:
        SweepEntry("mpfa", SolverConfig(), ContinuationConfig())
    assert str(err.value) == \
        "unknown scheme 'mpfa' (supported: tpfa, mpfa-o)"


def test_sweep_empty():
    spec = build_dam("unconfined", "cartesian:4x4")
    assert sweep(spec, []) == []


@pytest.mark.parametrize("solvers, kinds", [(["bfgs"], ["linear"]),
                                            (["newton"], ["cubic"])])
def test_make_entries_validates_without_schemes(solvers, kinds):
    with pytest.raises(ValueError, match="bfgs|cubic"):
        make_entries([], solvers, kinds)


def test_sweep_failures_are_rows(monkeypatch):
    # impossible tolerance in 1 iteration: everything fails but runs
    spec = build_dam("unconfined", "cartesian:4x4")
    cfg = SolverConfig(method="newton", nit_max=1, eps_rel=1e-14,
                       eps_abs=1e-14)
    entries = [SweepEntry("tpfa", cfg,
                          ContinuationConfig(kind="power"))]
    rows = sweep(spec, entries)
    assert rows[0].outcome == "fail"
    assert rows[0].cont_failed > 0
