"""VTK and CSV writers: structure, round-trips, deterministic bytes."""

import numpy as np
import pytest

from richardsfv.benchmarks import build_dam
from richardsfv.constitutive import UNCONF_FLOOR, unconf_theta
from richardsfv.continuation import ContinuationConfig, run_continuation
from richardsfv.discretization import Discretization
from richardsfv.mesh import gen_cartesian, gen_triangular
from richardsfv.output import (FieldSnapshot, field_snapshot,
                               format_sweep_table, write_convergence_csv,
                               write_report_csv, write_sweep_csv, write_vtk)
from richardsfv.solvers import SolverConfig, solve_nonlinear


def single_cell_snapshot():
    mesh = gen_cartesian(1, 1, 1.0, 1.0)
    return FieldSnapshot(mesh=mesh, head=np.array([2.0]),
                         psi=np.array([1.5]), saturation=np.array([1.0]),
                         kr=np.array([1.0]))


def parse_vtk_cell_count(path):
    with open(path) as fh:
        for line in fh:
            if line.startswith("CELLS "):
                return int(line.split()[1])
    raise AssertionError("no CELLS section")


def test_vtk_single_cell(tmp_path):
    path = tmp_path / "one.vtk"
    write_vtk(single_cell_snapshot(), path)
    text = path.read_text()
    assert parse_vtk_cell_count(path) == 1
    for name in ("head", "psi", "saturation", "kr"):
        assert f"SCALARS {name} double 1" in text
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert "CELL_TYPES 1" in text


@pytest.mark.parametrize("gen,vtk_type", [(gen_cartesian, "9"),
                                          (gen_triangular, "5")])
def test_vtk_cell_count_roundtrip(tmp_path, gen, vtk_type):
    mesh = gen(3, 2, 1.0, 1.0)
    snap = FieldSnapshot(mesh=mesh, head=np.zeros(mesh.n_cells),
                         psi=np.zeros(mesh.n_cells),
                         saturation=np.zeros(mesh.n_cells),
                         kr=np.zeros(mesh.n_cells))
    path = tmp_path / "grid.vtk"
    write_vtk(snap, path)
    assert parse_vtk_cell_count(path) == mesh.n_cells
    lines = path.read_text().splitlines()
    i = lines.index(f"CELL_TYPES {mesh.n_cells}")
    types = set(lines[i + 1:i + 1 + mesh.n_cells])
    assert types == {vtk_type}


def test_snapshot_length_validation():
    mesh = gen_cartesian(2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        FieldSnapshot(mesh=mesh, head=np.zeros(3), psi=np.zeros(4),
                      saturation=np.zeros(4), kr=np.zeros(4))


def test_dam_snapshot_saturated_left_column(tmp_path):
    # h = 10 m Dirichlet over a 10 m column: the left cells sit at full
    # saturation in the converged field
    spec = build_dam("unconfined", "400")
    disc = Discretization(spec, "tpfa")
    h, rep = run_continuation(disc, SolverConfig(method="mixed"),
                              ContinuationConfig(kind="linear"))
    assert rep.success
    snap = field_snapshot(disc, h)
    assert snap.saturation.max() == 1.0
    zc = spec.mesh.cell_centroid[:, 1]
    left_cells = np.nonzero(spec.mesh.cell_centroid[:, 0] < 0.5)[0]
    assert snap.saturation[left_cells].max() == 1.0
    # all but the topmost left-column cell sit below the water table
    below = left_cells[zc[left_cells] < 9.0]
    assert snap.saturation[below].min() == 1.0
    assert (snap.saturation >= 0).all() and (snap.saturation <= 1).all()
    write_vtk(snap, tmp_path / "dam.vtk")
    assert parse_vtk_cell_count(tmp_path / "dam.vtk") == 400


def test_trace_csv_rows(tmp_path):
    spec = build_dam("unconfined", "cartesian:3x3")
    disc = Discretization(spec, "tpfa")
    h, trace = solve_nonlinear(disc, np.full(9, 6.0), 1.0, "linear",
                               SolverConfig(method="mixed"))
    path = tmp_path / "trace.csv"
    write_convergence_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,phase,res2,resinf,omega,backtracks,linres"
    assert len(lines) == trace.iterations + 2  # header + init + iterations
    assert lines[1].startswith("0,init,")
    linres = [float(line.split(",")[6]) for line in lines[2:]]
    assert linres and all(0.0 <= r < 1e-6 for r in linres)


def test_empty_trace_csv(tmp_path):
    from richardsfv.solvers import ConvergenceTrace
    path = tmp_path / "empty.csv"
    write_convergence_csv(ConvergenceTrace(), path)
    assert path.read_text() == \
        "iter,phase,res2,resinf,omega,backtracks,linres\n"


def test_report_csv(tmp_path):
    spec = build_dam("unconfined", "cartesian:4x4")
    disc = Discretization(spec, "tpfa")
    _, rep = run_continuation(disc, SolverConfig(method="mixed"),
                              ContinuationConfig())
    path = tmp_path / "report.csv"
    write_report_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("step,q_target,outcome")
    assert len(lines) == len(rep.steps) + 1


def test_csv_deterministic_bytes(tmp_path):
    spec = build_dam("unconfined", "cartesian:4x4")
    disc = Discretization(spec, "tpfa")
    blobs = []
    for i in range(2):
        h, trace = solve_nonlinear(disc, np.full(16, 6.0), 1.0, "power",
                                   SolverConfig(method="mixed"))
        path = tmp_path / f"t{i}.csv"
        write_convergence_csv(trace, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_sweep_csv_and_table(tmp_path):
    from richardsfv.continuation import SweepRow
    rows = [SweepRow("tpfa", "newton", "linear", "ok", 0.1234, 1, 0, 22),
            SweepRow("mpfa-o", "mixed", "power", "fail", 2.5, 15, 3, 1321)]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("scheme,solver,kind,outcome,wall_seconds,"
                        "cont_success,cont_failed,total_iters")
    assert lines[1] == "tpfa,newton,linear,ok,0.123,1,0,22"
    table = format_sweep_table(rows)
    assert "1321" in table and "fail" in table
    assert len(table.splitlines()) == 3
    # empty table still has a header
    assert format_sweep_table([]).count("\n") == 0


def test_vtk_write_error_names_path():
    snap = single_cell_snapshot()
    with pytest.raises(OSError, match="no/such/dir"):
        write_vtk(snap, "no/such/dir/out.vtk")


def test_dam_converged_field_bounds():
    # discrete maximum-principle surrogate for TPFA central on the dam:
    # heads stay inside the Dirichlet range [h_lo, h_hi]. theta is
    # non-decreasing in h, so each cell's saturation stays at or above
    # the model's curve evaluated at h_lo for that cell. Below h_r that
    # curve is the residual branch, under alpha_phi but above the
    # floor clamp alpha_phi*UNCONF_FLOOR, which no cell may reach.
    spec = build_dam("unconfined", "400")
    disc = Discretization(spec, "tpfa")
    h, rep = run_continuation(disc, SolverConfig(method="mixed"),
                              ContinuationConfig(kind="linear"))
    assert rep.success
    h_lo, h_hi = min(spec.dirichlet.values()), max(spec.dirichlet.values())
    assert h.min() >= h_lo - 1e-9 and h.max() <= h_hi + 1e-9
    snap = field_snapshot(disc, h)
    model = spec.media[0].model
    floor = model.alpha_phi * UNCONF_FLOOR * (1.0 + 1e-9)  # round-off
    bound = unconf_theta(np.full(disc.n_cells, h_lo), spec.mesh.cell_zmin,
                         spec.mesh.cell_zmax, model) / model.phi
    assert bound.min() > floor
    assert (snap.saturation >= bound * (1.0 - 1e-9)).all()
    assert (snap.saturation > floor).all()
