"""A sweep's shared Discretization against a fresh one per entry, on
all 72 runs of the comparison matrix: every StepRecord's q_target,
outcome, iterations and final_hash agree. It doubles the matrix's
time, so it runs as its own CI step, outside Tier-1:

    PYTHONPATH=src python -m pytest -q tests/check_sweep_reuse.py
"""

from richardsfv.continuation import run_continuation
from richardsfv.discretization import Discretization

from test_matrix import run_matrix


def _steps(report):
    return [(s.q_target, s.outcome, s.iterations, s.final_hash)
            for s in report.steps]


def test_shared_discretization_runs_as_a_fresh_one():
    for preset, mesh, spec, entry, _, report in run_matrix():
        _, fresh = run_continuation(Discretization(spec, entry.scheme),
                                    entry.solver_cfg, entry.cont_cfg)
        assert _steps(report) == _steps(fresh), \
            (preset, mesh, entry.scheme, entry.solver_cfg.method,
             entry.cont_cfg.kind)
