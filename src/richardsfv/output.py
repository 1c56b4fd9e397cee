"""Field and trace export: legacy ASCII VTK and plot-ready CSV.

All writers are deterministic: identical inputs produce byte-identical
files. Numbers are written with repr (shortest round-trip form), which
is locale-independent.
"""

from dataclasses import dataclass

import numpy as np

from .constitutive import VgmParams

__all__ = [
    "FieldSnapshot",
    "field_snapshot",
    "write_vtk",
    "write_convergence_csv",
    "write_report_csv",
    "write_sweep_csv",
    "format_sweep_table",
]


@dataclass(frozen=True)
class FieldSnapshot:
    """Per-cell fields at a solver state: head, pressure head, saturation
    (effective saturation for VGM, theta/phi for the unconfined model)
    and relative permeability."""

    mesh: object
    head: np.ndarray
    psi: np.ndarray
    saturation: np.ndarray
    kr: np.ndarray

    def __post_init__(self):
        n = self.mesh.n_cells
        for name in ("head", "psi", "saturation", "kr"):
            arr = getattr(self, name)
            if len(arr) != n:
                raise ValueError(f"{name} has {len(arr)} entries "
                                 f"for {n} cells")


def field_snapshot(disc, h):
    """Build a FieldSnapshot from a Discretization and a head vector."""
    spec = disc.spec
    theta, _, kr, _ = disc.cell_state(h)
    sat = np.empty_like(theta)
    for model, ids, *_ in disc.groups:
        if isinstance(model, VgmParams):
            sat[ids] = (theta[ids] - model.theta_r) / \
                (model.theta_s - model.theta_r)
        else:
            sat[ids] = theta[ids] / model.phi
    return FieldSnapshot(mesh=spec.mesh, head=h.copy(),
                         psi=h - spec.mesh.cell_centroid[:, 1],
                         saturation=np.clip(sat, 0.0, 1.0), kr=kr)


_VTK_CELL_TYPES = {3: 5, 4: 9}  # triangle, quad; other polygons use 7


def write_vtk(snapshot, path):
    """Write a legacy-VTK ASCII unstructured grid with the four cell
    data arrays head, psi, saturation, kr."""
    mesh = snapshot.mesh
    n = mesh.n_cells
    ptr = mesh.cell_ptr.tolist()
    verts = mesh.cell_vert.tolist()
    sizes = np.diff(mesh.cell_ptr).tolist()
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise OSError(f"cannot write VTK file {path}: {exc}") from None
    # each section is written as it is formatted, so the file's text is
    # never held whole
    with fh:
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


def write_convergence_csv(trace, path):
    """Trace CSV with columns iter, phase, res2, resinf, omega,
    backtracks, linres (one row per recorded iteration; linres is the
    relative residual of that iteration's linear solve, 0 on the initial
    row)."""
    with open(path, "w") as fh:
        fh.write("iter,phase,res2,resinf,omega,backtracks,linres\n")
        for it, phase, r2, rinf, om, bt, lr in trace.rows():
            fh.write(f"{it},{phase},{float(r2)!r},{float(rinf)!r},"
                     f"{float(om)!r},{bt},{float(lr)!r}\n")


def write_report_csv(report, path):
    """Continuation report CSV: one row per attempted step."""
    with open(path, "w") as fh:
        fh.write("step,q_target,outcome,iterations,"
                 "initial_hash,final_hash\n")
        for i, s in enumerate(report.steps):
            fh.write(f"{i},{float(s.q_target)!r},{s.outcome},{s.iterations},"
                     f"{s.initial_hash},{s.final_hash}\n")


_SWEEP_COLUMNS = ("scheme", "solver", "kind", "outcome", "wall_seconds",
                  "cont_success", "cont_failed", "total_iters")


def write_sweep_csv(rows, path):
    """Comparison-table CSV: scheme, solver, kind, outcome,
    wall_seconds, cont_success, cont_failed, total_iters."""
    with open(path, "w") as fh:
        fh.write(",".join(_SWEEP_COLUMNS) + "\n")
        for r in rows:
            fh.write(f"{r.scheme},{r.solver},{r.kind},{r.outcome},"
                     f"{r.wall_seconds:.3f},{r.cont_success},"
                     f"{r.cont_failed},{r.total_iters}\n")


def format_sweep_table(rows):
    """Aligned text table mirroring the CSV columns."""
    header = ("scheme", "solver", "kind", "outcome", "time_s",
              "cont.st.", "tot.iter.")
    data = [(r.scheme, r.solver, r.kind, r.outcome,
             f"{r.wall_seconds:.2f}",
             f"{r.cont_success}({r.cont_failed})",
             str(r.total_iters)) for r in rows]
    widths = [max(len(header[i]), *(len(d[i]) for d in data))
              if data else len(header[i]) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for d in data:
        lines.append("  ".join(v.ljust(w) for v, w in zip(d, widths)))
    return "\n".join(lines)
