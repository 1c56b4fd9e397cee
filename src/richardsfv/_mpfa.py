"""MPFA O-method flux stencils on general 2D polygonal meshes.

For every mesh vertex an interaction region is formed by the incident
cells. Inside each cell's subregion the pressure is linear, pinned to
the cell-center value and to continuity values u at the midpoints of the
cell's two edges meeting at the vertex. Flux continuity across interior
half-faces (and prescribed flux on Neumann half-faces) closes a local
system M u = N h + r (Aavatsmark, Comput. Geosci. 2002); eliminating u
gives each half-face flux in cell-center heads plus a Dirichlet
constant, and a face's two half-faces sum to its stencil. This is exact
for linear pressure fields and two-point on K-orthogonal rectangles.

No loop runs per vertex: all corners' geometry is computed at once and
the systems are solved as one stacked np.linalg.solve per shape (unknown
faces, cells). A system that may be ill-conditioned is refused as
singular, whatever its pivots round to. The guard reads the 1-norm: it
refuses a system M of n unknowns when n cond_1(M) > COND_MAX. As
cond_2 <= n cond_1 for n x n matrices, it accepts no system whose
2-norm condition number exceeds COND_MAX, and an exactly singular M
(cond_1 = inf) is refused; cond_1 costs one stacked inverse where
cond_2 costs a stacked SVD.
"""

import numpy as np

__all__ = ["mpfa_o_stencils"]

# largest accepted bound n cond_1 on a local system's condition number
# cond_2: the dam grids reach 1.7e3 (cond_2 201), the layered slab 1.7e4
# on triangular:12x12 and 9.0e4 on the 1900 grid (cond_2 2.5e3 and
# 6.0e3), two cells meeting along two faces (a degree-2 vertex) 5e16-9e16
COND_MAX = 1e12


def _corners_by_vertex(mesh):
    """Cell corners sorted by vertex, then cell: per corner its vertex,
    its cell and its two loop faces, the edge ending at the vertex
    first (shape (corners, 2))."""
    cell = np.repeat(np.arange(mesh.n_cells), np.diff(mesh.cell_ptr))
    # edge i joins loop vertices i and i+1, so vertex i closes edge i-1
    prev = np.arange(-1, len(mesh.cell_vert) - 1)
    prev[mesh.cell_ptr[:-1]] = mesh.cell_ptr[1:] - 1
    order = np.lexsort((cell, mesh.cell_vert))
    faces = np.column_stack([mesh.cf_face[prev], mesh.cf_face])
    return mesh.cell_vert[order], cell[order], faces[order]


def _refused(M):
    """Which systems of the stack M (..., n, n) the guard refuses: those
    whose n cond_1 exceeds COND_MAX or is not finite."""
    return ~(M.shape[-1] * np.linalg.cond(M, 1) <= COND_MAX)


def _half_face_fluxes(spec, cell, faces):
    """(lam, cc, flat) per corner k and slot s: cell[k]'s outward flux
    through half-face faces[k, s] is lam[k, s] @ u + cc[k, s] h[cell[k]],
    u the values on faces[k]; flat marks degenerate corners."""
    mesh = spec.mesh
    G = mesh.face_midpoint[faces] - mesh.cell_centroid[cell][:, None]
    det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0]
    flat = np.abs(det) <= 1e-14 * np.maximum(mesh.cell_area[cell], 1e-30)
    adj = np.stack([G[:, 1, 1], -G[:, 0, 1], -G[:, 1, 0], G[:, 0, 0]], -1)
    Ginv = adj.reshape(-1, 2, 2) / np.where(flat, 1.0, det)[:, None, None]
    K = np.array([m.conductivity for m in spec.media])[spec.cell_medium[cell]]
    sign = np.where(mesh.face_cells[faces, 0] == cell[:, None], 1.0, -1.0)
    a = sign[..., None] * mesh.face_normal[faces]
    # lam[k, s, t] = sum_ij a[k, s, i] K[k, i, j] Ginv[k, j, t]: the terms
    # added to 0 in row-major (i, j) order, as einsum adds them, give the
    # einsum's bits, signed zeros included, without its per-element cost
    lam = sum((a[:, :, i] * K[:, None, i, j])[..., None] * Ginv[:, None, j]
              for i in (0, 1) for j in (0, 1))
    lam *= (-0.5 * mesh.face_length[faces])[..., None]
    return lam, -lam.sum(axis=-1), flat


def mpfa_o_stencils(spec, is_dir, bc):
    """Build the O-method flux stencils of the interior and Dirichlet
    faces, as arrays (face_ids, ptr, col, w, g): face face_ids[i] has
    base flux sum(w[k] h[col[k]] for k in ptr[i]:ptr[i+1]) + g[i],
    oriented along the stored normal. Face ids and, per face, columns
    ascend. is_dir and bc are the boundary table: per face, whether it
    is Dirichlet, and its head or Neumann flux density."""
    from .discretization import AssemblyError

    mesh = spec.mesh
    n_f, n_v = mesh.n_faces, mesh.n_vertices
    active = (mesh.face_cells[:, 1] >= 0) | is_dir
    face_ids = np.nonzero(active)[0]
    vert, cell, faces = _corners_by_vertex(mesh)
    lam, cc, flat = _half_face_fluxes(spec, cell, faces)

    # local numbering: a vertex's faces ascend, its unknown (non-Dirichlet)
    # faces and its cells ascend; hf maps each half-face to its (vertex, face)
    vf, hf = np.unique(vert[:, None] * n_f + faces, return_inverse=True)
    hf = hf.reshape(faces.shape)
    vf_vert, vf_face = np.divmod(vf, n_f)
    unk = ~is_dir[vf_face]
    nu = np.bincount(vf_vert[unk], minlength=n_v)
    nc = np.bincount(vert, minlength=n_v)
    uloc = np.cumsum(unk) - 1 - (np.cumsum(nu) - nu)[vf_vert]
    first = np.cumsum(nc) - nc
    kloc = np.arange(len(vert)) - first[vert]
    # vertex blocks laid out by system shape: M is nu x nu, the right-hand
    # side [N | r] nu x (nc + 1); row starts per unknown (vertex, face)
    shape_key = nu * (nc.max() + 1) + nc
    order = np.argsort(shape_key, kind="stable")
    sizes = np.column_stack([nu * nu, nu * (nc + 1)])
    off = np.zeros_like(sizes)
    off[order] = np.cumsum(sizes[order], axis=0) - sizes[order]
    (m_off, b_off), (n_m, n_b) = off.T, sizes.sum(axis=0)
    vu, vc = nu[vf_vert], nc[vf_vert]
    m_row = uloc * vu + m_off[vf_vert]
    b_row = np.where(unk, uloc * (vc + 1) + b_off[vf_vert], n_b)

    # flux continuity over the half-faces of unknown faces; the Neumann
    # flux and Dirichlet heads go to r
    k, s = np.nonzero(unk[hf])
    hs, hk = hf[k, s], hf[k]
    t_unk = unk[hk]
    M = np.bincount((m_row[hs][:, None] + uloc[hk])[t_unk],
                    weights=lam[k, s][t_unk], minlength=n_m)
    ri, ti = np.nonzero(~t_unk)
    neu = unk & (mesh.face_cells[vf_face, 1] < 0)
    B = np.bincount(np.concatenate([
        b_row[hs] + kloc[k], (b_row + vc)[hs[ri]], (b_row + vc)[neu]]),
        weights=np.concatenate([
            -cc[k, s], -lam[k[ri], s[ri], ti] * bc[faces[k[ri], ti]],
            bc[vf_face[neu]] * 0.5 * mesh.face_length[vf_face[neu]]]),
        minlength=n_b)

    # one stacked solve per shape into XY (X | y per vertex block), then
    # zeros that stand in for the X of a Dirichlet face
    XY = np.zeros(n_b + nc.max() + 1)
    # (vertex, rank, what): the lowest vertex wins, a bad corner first
    faults = [(v, 0, f"singular interaction region in cell {c}")
              for v, c in zip(vert[flat][:1], cell[flat][:1])]
    for shape in np.unique(shape_key[nu > 0]):
        vs = np.flatnonzero(shape_key == shape)
        n_u, n_c, m0, b0 = nu[vs[0]], nc[vs[0]], m_off[vs[0]], b_off[vs[0]]
        Mg = M[m0:m0 + len(vs) * n_u * n_u].reshape(-1, n_u, n_u)
        bad = _refused(Mg)
        if bad.any():
            faults.append((vs[bad].min(), 1,
                           "singular interaction-region system"))
            continue
        sl = slice(b0, b0 + len(vs) * n_u * (n_c + 1))
        XY[sl] = np.linalg.solve(Mg, B[sl].reshape(len(vs), n_u, -1)).ravel()
    if faults:
        v, _, what = min(faults)
        raise AssemblyError(f"vertex {v}: {what}")

    # an active face's flux at a vertex, from its owner's half-face:
    # cc h_owner + sum_t lam_t u_t, u_t = X h + y on an unknown face and
    # the Dirichlet head otherwise; rows in (vertex, face) order
    own = (mesh.face_cells[faces, 0] == cell[:, None]) & active[faces]
    k, s = np.divmod(np.flatnonzero(own)[np.argsort(hf[own])], 2)
    f, a, x_row, n_c = faces[k, s], lam[k, s], b_row[hf[k]], nc[vert[k]]
    y = np.where(unk[hf[k]], XY[x_row + n_c[:, None]], bc[faces[k]])
    g = np.bincount(np.repeat(f, 2), weights=(a * y).ravel(),
                    minlength=n_f)[face_ids]
    # one (face, cell) term per row and cell j of its vertex; a term
    # exists at the owner cell and where some lam_t X_t is nonzero
    er = np.repeat(np.arange(len(k)), n_c)
    j = np.arange(len(er)) - np.repeat(np.cumsum(n_c) - n_c, n_c)
    keep = j == kloc[k][er]
    t_w = np.where(keep, cc[k, s][er], 0.0)
    for t in (0, 1):
        a_t, X_t = a[er, t], XY[x_row[er, t] + j]
        t_w = t_w + a_t * X_t
        keep = keep | ((a_t != 0.0) & (X_t != 0.0))
    key = f[er] * mesh.n_cells + cell[first[vert[k]][er] + j]

    # one sum per (face, cell) key; a stable sort keeps each key's terms
    # in row order, the order bincount adds them in
    by_key = np.flatnonzero(keep)[np.argsort(key[keep], kind="stable")]
    key = key[by_key]
    new = np.append(True, key[1:] != key[:-1])
    terms = key[new]
    ptr = np.searchsorted(terms, np.append(face_ids, n_f) * mesh.n_cells)
    w = np.bincount(np.cumsum(new) - 1, weights=t_w[by_key])
    return face_ids, ptr, terms % mesh.n_cells, w, g
