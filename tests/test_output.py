"""VTK and CSV writers: structure, round-trips, deterministic bytes."""

import os
import re
from types import SimpleNamespace

import numpy as np
import pytest

from richardsfv.benchmarks import build_dam
from richardsfv.constitutive import UNCONF_FLOOR, unconf_theta
from richardsfv.continuation import (ContinuationConfig, SweepRow,
                                     run_continuation)
from richardsfv.discretization import Discretization
from richardsfv.mesh import (build_mesh, gen_cartesian, gen_triangular,
                             write_mesh)
from richardsfv.output import (_VTK_CELL_TYPES, FieldSnapshot,
                               field_snapshot, format_sweep_table,
                               write_convergence_csv, write_report_csv,
                               write_sweep_csv, write_vtk)
from richardsfv.solvers import SolverConfig, solve_nonlinear

from test_mesh import mixed_input


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


def _mixed_mesh(*_):
    return build_mesh(*mixed_input())


@pytest.mark.parametrize("gen,loops", [(gen_cartesian, {4}),
                                       (gen_triangular, {3}),
                                       (_mixed_mesh, {3, 4, 5, 9})],
                         ids=["gen_cartesian-9", "gen_triangular-5",
                              "mixed-5/7/9"])
def test_vtk_cell_count_roundtrip(tmp_path, gen, loops):
    # each CELLS row is a loop size and that loop's vertices, and only
    # triangles (5) and quads (9) have a cell type of their own
    mesh = gen(3, 2, 1.0, 1.0)
    n, sizes = mesh.n_cells, np.diff(mesh.cell_ptr).tolist()
    assert set(sizes) == loops
    snap = FieldSnapshot(mesh=mesh, head=np.zeros(n), psi=np.zeros(n),
                         saturation=np.zeros(n), kr=np.zeros(n))
    path = tmp_path / "grid.vtk"
    write_vtk(snap, path)
    assert parse_vtk_cell_count(path) == n
    lines = path.read_text().splitlines()
    i = lines.index(f"CELLS {n} {n + sum(sizes)}")
    rows = [list(map(int, row.split())) for row in lines[i + 1:i + 1 + n]]
    assert [row[0] for row in rows] == sizes
    assert [row[1:] for row in rows] == \
        [mesh.cell_vert[a:b].tolist()
         for a, b in zip(mesh.cell_ptr, mesh.cell_ptr[1:])]
    assert lines[i + 1 + n] == f"CELL_TYPES {n}"
    types = lines[i + 2 + n:i + 2 + 2 * n]
    assert types == [{3: "5", 4: "9"}.get(k, "7") for k in sizes]
    assert lines[i + 2 + 2 * n] == f"CELL_DATA {n}"


def test_snapshot_length_validation():
    mesh = gen_cartesian(2, 2, 1.0, 1.0)
    with pytest.raises(ValueError,
                       match=r"^head has 3 entries for 4 cells$"):
        FieldSnapshot(mesh=mesh, head=np.zeros(3), psi=np.zeros(4),
                      saturation=np.zeros(4), kr=np.zeros(4))


@pytest.mark.parametrize("head,message", [
    (np.zeros((4, 1)), "head has shape (4, 1), expected (4,)"),
    (np.float64(2.0), "head has shape (), expected (4,)"),
], ids=["column", "scalar"])
def test_snapshot_shape_validation(head, message):
    # gen_triangular(2, 1) has 4 cells; a column vector has 4 entries
    # but is not a field, and a scalar has no length at all
    mesh = gen_triangular(2, 1, 1.0, 1.0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FieldSnapshot(mesh=mesh, head=head, psi=np.zeros(4),
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
    rows = [SweepRow("tpfa", "newton", "linear", "ok", 0.1234, 1, 0, 22,
                     1.0),
            SweepRow("mpfa-o", "mixed", "power", "fail", 2.5, 15, 3, 1321,
                     0.80224609375)]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("scheme,solver,kind,outcome,wall_seconds,"
                        "cont_success,cont_failed,total_iters,final_q")
    assert lines[1] == "tpfa,newton,linear,ok,0.123,1,0,22,1.0"
    assert lines[2] == "mpfa-o,mixed,power,fail,2.500,15,3,1321,0.80224609375"
    table = format_sweep_table(rows)
    assert table == (
        "scheme  solver  kind    outcome  time_s  cont.st.  tot.iter.\n"
        "tpfa    newton  linear  ok       0.12    1(0)      22\n"
        "mpfa-o  mixed   power   fail     2.50    15(3)     1321")
    # empty table still has a header
    assert format_sweep_table([]).count("\n") == 0
    assert format_sweep_table([]) == \
        "scheme  solver  kind  outcome  time_s  cont.st.  tot.iter."


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


# -- the per-value writer as reference ---------------------------------

def _loop_write_vtk(snapshot, path):
    """Reference: the writer as it was before one % per section, one
    f-string or join per vertex, cell and value."""
    mesh = snapshot.mesh
    n = mesh.n_cells
    ptr = mesh.cell_ptr.tolist()
    verts = mesh.cell_vert.tolist()
    sizes = np.diff(mesh.cell_ptr).tolist()
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 2.0\nrichardsfv fields\nASCII\n"
                 "DATASET UNSTRUCTURED_GRID\n"
                 f"POINTS {mesh.n_vertices} double\n")
        fh.writelines(f"{x!r} {z!r} 0.0\n" for x, z in mesh.vertices.tolist())
        fh.write(f"CELLS {n} {n + len(verts)}\n")
        fh.writelines(" ".join(map(str, [k, *verts[a:b]])) + "\n"
                      for k, a, b in zip(sizes, ptr, ptr[1:]))
        fh.write(f"CELL_TYPES {n}\n")
        fh.writelines(f"{_VTK_CELL_TYPES.get(k, 7)}\n" for k in sizes)
        fh.write(f"CELL_DATA {n}\n")
        for name in ("head", "psi", "saturation", "kr"):
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            values = np.asarray(getattr(snapshot, name), dtype=float)
            fh.writelines(f"{v!r}\n" for v in values.tolist())


def _dam_vgm_snapshot():
    disc = Discretization(build_dam("vgm", "triangular:16x16"), "tpfa")
    h, rep = run_continuation(disc, SolverConfig(method="mixed"),
                              ContinuationConfig())
    assert rep.success
    return field_snapshot(disc, h)


def _cartesian_snapshot():
    mesh = gen_cartesian(5, 5, 10.0, 10.0)
    rng = np.random.default_rng(3)
    head = rng.uniform(2.0, 10.0, mesh.n_cells)
    return FieldSnapshot(mesh=mesh, head=head,
                         psi=head - mesh.cell_centroid[:, 1],
                         saturation=rng.uniform(0.0, 1.0, mesh.n_cells),
                         kr=rng.uniform(0.0, 1.0, mesh.n_cells))


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e300,
           1e-300, -1e-300, 0.1, 1.0 / 3.0]


def _mixed_special_snapshot():
    # repr's edge cases in every field, and kr as a list of numpy scalars
    mesh = _mixed_mesh()
    values = np.resize(SPECIAL, mesh.n_cells)
    return FieldSnapshot(mesh=mesh, head=values, psi=values[::-1],
                         saturation=np.roll(values, 5),
                         kr=[np.float64(v) for v in np.roll(values, 7)])


@pytest.mark.parametrize("make", [_dam_vgm_snapshot, _cartesian_snapshot,
                                  _mixed_special_snapshot])
def test_vtk_matches_per_value_writer(tmp_path, make):
    snap = make()
    write_vtk(snap, tmp_path / "new.vtk")
    _loop_write_vtk(snap, tmp_path / "loop.vtk")
    assert (tmp_path / "new.vtk").read_bytes() == \
        (tmp_path / "loop.vtk").read_bytes()


# -- rewriting an existing file -----------------------------------------

def _report():
    disc = Discretization(build_dam("unconfined", "cartesian:3x3"), "tpfa")
    return run_continuation(disc, SolverConfig(method="mixed"),
                            ContinuationConfig())[1]


# the package's five writers, each as a call that writes one path
WRITERS = {
    "vtk": lambda path: write_vtk(single_cell_snapshot(), path),
    "trace": lambda path: write_convergence_csv(_report().steps[-1].trace,
                                                path),
    "report": lambda path: write_report_csv(_report(), path),
    "sweep": lambda path: write_sweep_csv(
        [SweepRow("tpfa", "newton", "linear", "ok", 0.1234, 1, 0, 22, 1.0)],
        path),
    "mesh": lambda path: write_mesh(gen_triangular(3, 1, 1.0, 0.5), path),
}


@pytest.fixture(params=sorted(WRITERS))
def writer(request):
    return WRITERS[request.param]


def _expected_bytes(writer, tmp_path):
    fresh = tmp_path / "fresh"
    writer(fresh)
    return fresh.read_bytes()


def test_writer_replaces_a_longer_file(writer, tmp_path):
    expected = _expected_bytes(writer, tmp_path)
    path = tmp_path / "out"
    path.write_bytes(b"old line\n" * (len(expected) // 4 + 100))
    path.chmod(0o640)
    inode = path.stat().st_ino
    writer(path)
    assert path.read_bytes() == expected
    assert path.stat().st_ino == inode
    assert path.stat().st_mode & 0o777 == 0o640


def test_writer_rewrites_the_target_of_a_symlink(writer, tmp_path):
    expected = _expected_bytes(writer, tmp_path)
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"x" * (2 * len(expected) + 100))
    link.symlink_to(target)
    writer(link)
    assert link.is_symlink()
    assert target.read_bytes() == expected


def test_writer_accepts_devnull(writer):
    writer(os.devnull)


def test_failed_vtk_write_leaves_no_old_tail(tmp_path):
    # the kr values cannot be read, so the write stops after kr's header
    class Unreadable:
        def __array__(self, dtype=None, copy=None):
            raise RuntimeError("unreadable")

    good = single_cell_snapshot()
    text = _expected_bytes(lambda p: write_vtk(good, p), tmp_path)
    head = b"SCALARS kr double 1\nLOOKUP_TABLE default\n"
    written = text[:text.index(head) + len(head)]
    path = tmp_path / "out.vtk"
    path.write_bytes(text * 3)
    broken = SimpleNamespace(mesh=good.mesh, head=good.head, psi=good.psi,
                             saturation=good.saturation, kr=Unreadable())
    with pytest.raises(RuntimeError, match="unreadable"):
        write_vtk(broken, path)
    assert path.read_bytes() == written
