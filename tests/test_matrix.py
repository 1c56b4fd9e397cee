"""The 72-run comparison matrix: the presets dam-vgm, dam-unconfined
and layered-slab on the 400 and triangular:16x16 meshes, each swept
over the twelve default scheme x solver x kind entries. Outcomes,
final_q and counts are pinned in data/matrix_anderson3.csv at the
default configs, and for the paper's plain Picard (anderson = 0) in
data/matrix.csv and in data/matrix_gamma05.csv with [line_search]
gamma = 0.5 (the README's dam-vgm setting); wall time is not.
check_sweep_reuse.py reruns every entry on a fresh Discretization."""

import csv
from pathlib import Path

import pytest

import richardsfv.continuation as cont_mod
from richardsfv.benchmarks import build_preset
from richardsfv.constitutive import KINDS
from richardsfv.continuation import make_entries, run_continuation, sweep
from richardsfv.discretization import SCHEMES
from richardsfv.solvers import METHODS, LineSearchConfig, SolverConfig

DATA = Path(__file__).resolve().parent / "data"
PRESETS = ("dam-vgm", "dam-unconfined", "layered-slab")
MESHES = ("400", "triangular:16x16")


def run_matrix(solver_cfg=None, cont_cfg=None, presets=PRESETS,
               meshes=MESHES):
    """(preset, mesh, spec, entry, row, report) of every run, in
    matrix.csv order, with solver_cfg and cont_cfg as the entries' base
    configs (None: the defaults); each report is recorded as sweep's
    run_continuation returns it."""
    entries = make_entries(SCHEMES, METHODS, KINDS, solver_cfg, cont_cfg)
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        for preset in presets:
            for mesh in meshes:
                spec = build_preset(preset, mesh)
                reports = []

                def recording(*args):
                    h, report = run_continuation(*args)
                    reports.append(report)
                    return h, report

                mp.setattr(cont_mod, "run_continuation", recording)
                rows = sweep(spec, entries)
                runs += [(preset, mesh, spec, *run)
                         for run in zip(entries, rows, reports)]
    return runs


def table_rows(solver_cfg=None, presets=PRESETS, meshes=MESHES):
    """The rows of run_matrix, as the pinned tables hold them."""
    return [[preset, mesh, r.scheme, r.solver, r.kind, r.outcome,
             repr(r.final_q), str(r.cont_success), str(r.cont_failed),
             str(r.total_iters)]
            for preset, mesh, _, _, r, _ in
            run_matrix(solver_cfg, presets=presets, meshes=meshes)]


def check_table(name, solver_cfg=None, presets=PRESETS, meshes=MESHES):
    """Fail with exactly the rows of table_rows(...) that differ from the
    pinned table data/<name>."""
    with open(DATA / name, newline="") as fh:
        table = list(csv.reader(fh))
    header, expected = table[0], table[1:]
    got = table_rows(solver_cfg, presets, meshes)
    assert len(got) == len(expected) == \
        len(presets) * len(meshes) * len(SCHEMES) * len(METHODS) * len(KINDS)
    moved = [f"expected {','.join(e)}\n     got {','.join(g)}"
             for e, g in zip(expected, got) if e != g]
    if moved:
        pytest.fail(f"{len(moved)} {name} rows differ ({','.join(header)}):"
                    "\n" + "\n".join(moved), pytrace=False)


def test_matrix_matches_table():
    check_table("matrix.csv", SolverConfig(anderson=0))


def test_matrix_gamma05_matches_table():
    # 66/72 converged, 1621 iterations, 103 failed steps (gamma = 0.25:
    # 64/72, 8374, 206); the same rows as gamma = 0.5 with 20 refinements
    check_table("matrix_gamma05.csv",
                SolverConfig(anderson=0,
                             line_search=LineSearchConfig(gamma=0.5)))


def test_matrix_anderson3_matches_table():
    # the defaults, Picard steps Anderson-mixed at depth 3 with the
    # plain-step fallback: 68/72 converged, 1342 iterations, 65 failed
    # steps; against matrix.csv 20 rows move, and three that fail either
    # way take more iterations
    check_table("matrix_anderson3.csv")
