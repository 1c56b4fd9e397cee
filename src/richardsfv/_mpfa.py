"""MPFA O-method flux stencils on general 2D polygonal meshes.

For every mesh vertex an interaction region is formed by the incident
cells. Inside each cell's subregion the pressure is linear, pinned to
the cell-center value and to continuity values at the midpoints of the
cell's two edges meeting at the vertex. Flux continuity across interior
half-faces (and prescribed flux on Neumann half-faces) closes a small
local system; eliminating the continuity values expresses each half-face
flux as a linear combination of cell-center heads plus a constant from
Dirichlet data. Summing the two half-face contributions per face gives
the full-face stencil. The construction is exact for linear pressure
fields and collapses to two-point stencils on K-orthogonal rectangular
grids.
"""

import numpy as np

__all__ = ["mpfa_o_stencils"]


def _corners_by_vertex(mesh):
    """Cell corners grouped by vertex (CSR over vertices, cells ascending
    within a vertex): per corner its cell and the two loop faces meeting
    there, the edge ending at the vertex first."""
    n = len(mesh.cell_vert)
    cell = np.repeat(np.arange(mesh.n_cells), np.diff(mesh.cell_ptr))
    # edge i joins loop vertices i and i+1, so vertex i closes edge i-1
    prev = np.arange(-1, n - 1)
    prev[mesh.cell_ptr[:-1]] = mesh.cell_ptr[1:] - 1
    order = np.lexsort((cell, mesh.cell_vert))
    vptr = np.zeros(mesh.n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(mesh.cell_vert, minlength=mesh.n_vertices),
              out=vptr[1:])
    return (vptr.tolist(), cell[order].tolist(),
            mesh.cf_face[prev][order].tolist(), mesh.cf_face[order].tolist())


def mpfa_o_stencils(spec, dir_faces, dir_vals, neu_faces, neu_vals):
    """Build the O-method flux stencils of the interior and Dirichlet
    faces, as arrays (face_ids, ptr, col, w, g): face face_ids[i] has
    base flux sum(w[k] h[col[k]] for k in ptr[i]:ptr[i+1]) + g[i],
    oriented along the stored normal. Face ids and, per face, columns
    ascend.
    """
    from .discretization import AssemblyError

    mesh = spec.mesh
    Ks = [m.conductivity for m in spec.media]
    is_dir = np.zeros(mesh.n_faces, dtype=bool)
    is_dir[dir_faces] = True
    active = (mesh.face_cells[:, 1] >= 0) | is_dir
    face_ids = np.nonzero(active)[0]
    # Dirichlet head or Neumann flux density per boundary face
    bc = np.zeros(mesh.n_faces)
    bc[dir_faces] = dir_vals
    bc[neu_faces] = neu_vals
    is_dir, active, bc = is_dir.tolist(), active.tolist(), bc.tolist()
    owner = mesh.face_cells[:, 0].tolist()
    vptr, corner_cell, corner_f1, corner_f2 = _corners_by_vertex(mesh)

    # stencil terms (face, cell, weight) and constants (face, value),
    # summed per key after the vertex loop
    t_face, t_cell, t_w = [], [], []
    g_face, g_val = [], []

    for v in range(mesh.n_vertices):
        lo, hi = vptr[v], vptr[v + 1]
        if lo == hi:
            continue
        cells_v = corner_cell[lo:hi]
        faces_v = sorted(set(corner_f1[lo:hi]) | set(corner_f2[lo:hi]))
        unknown = [f for f in faces_v if not is_dir[f]]
        uidx = {f: i for i, f in enumerate(unknown)}
        cidx = {c: i for i, c in enumerate(cells_v)}
        nu, nc = len(unknown), len(cells_v)

        # subcell flux expressions: (face, cell) -> (cu over local faces,
        # cc over local cells); flux out of `cell` through its half-face
        expr = {}
        for c, f1, f2 in zip(cells_v, corner_f1[lo:hi], corner_f2[lo:hi]):
            x_c = mesh.cell_centroid[c]
            G = np.vstack([mesh.face_midpoint[f1] - x_c,
                           mesh.face_midpoint[f2] - x_c])
            det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
            if abs(det) <= 1e-14 * max(mesh.cell_area[c], 1e-30):
                raise AssemblyError(
                    f"vertex {v}: singular interaction region in cell {c}")
            Ginv = np.array([[G[1, 1], -G[0, 1]],
                             [-G[1, 0], G[0, 0]]]) / det
            K_c = Ks[spec.cell_medium[c]]
            for f in (f1, f2):
                sign = 1.0 if owner[f] == c else -1.0
                n_out = sign * mesh.face_normal[f]
                lam = -0.5 * mesh.face_length[f] * (n_out @ K_c @ Ginv)
                cu = np.zeros(2)
                cu[0], cu[1] = lam[0], lam[1]
                expr[(f, c)] = ((f1, f2), cu, -lam.sum())

        if nu:
            M = np.zeros((nu, nu))
            N = np.zeros((nu, nc))
            r = np.zeros(nu)
            for f in unknown:
                i = uidx[f]
                cl, cr = mesh.face_cells[f]
                sides = [cl] if cr < 0 else [cl, cr]
                if cr < 0:
                    # Neumann half-face: prescribed outward flux
                    r[i] += bc[f] * 0.5 * mesh.face_length[f]
                for c in sides:
                    (fa, fb), cu, cc = expr[(f, c)]
                    for ff, cf in ((fa, cu[0]), (fb, cu[1])):
                        if ff in uidx:
                            M[i, uidx[ff]] += cf
                        else:
                            r[i] -= cf * bc[ff]
                    N[i, cidx[c]] -= cc
            try:
                X = np.linalg.solve(M, N)
                y = np.linalg.solve(M, r)
            except np.linalg.LinAlgError:
                raise AssemblyError(
                    f"vertex {v}: singular interaction-region system") from None
        else:
            X = np.zeros((0, nc))
            y = np.zeros(0)

        # substitute continuity values into each half-face flux taken
        # from the owner (first adjacent) cell
        for f in faces_v:
            if not active[f]:
                continue  # Neumann faces need no stencil
            c = owner[f]
            (fa, fb), cu, cc = expr[(f, c)]
            t_face.append(f)
            t_cell.append(c)
            t_w.append(cc)
            for ff, cf in ((fa, cu[0]), (fb, cu[1])):
                if cf == 0.0:
                    continue
                if ff in uidx:
                    i = uidx[ff]
                    for c2, j in cidx.items():
                        if X[i, j] != 0.0:
                            t_face.append(f)
                            t_cell.append(c2)
                            t_w.append(cf * X[i, j])
                    g_val.append(cf * y[i])
                else:
                    g_val.append(cf * bc[ff])
                g_face.append(f)

    # one sum per (face, cell) key; bincount adds the terms in list order
    key = np.asarray(t_face, dtype=np.int64) * mesh.n_cells + t_cell
    terms, inv = np.unique(key, return_inverse=True)
    ptr = np.zeros(len(face_ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(terms // mesh.n_cells,
                          minlength=mesh.n_faces)[face_ids], out=ptr[1:])
    w = np.bincount(inv, weights=t_w, minlength=len(terms))
    g = np.bincount(np.asarray(g_face, dtype=np.int64), weights=g_val,
                    minlength=mesh.n_faces)[face_ids]
    return face_ids, ptr, terms % mesh.n_cells, w, g
