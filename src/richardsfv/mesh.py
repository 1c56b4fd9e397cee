"""2D cell-centered polygonal meshes for finite-volume discretization.

Meshes are immutable after construction: vertices, polygonal cells,
derived unique faces with orientation, and the per-cell vertical extents
the unconfined water-content model needs. Generators for Cartesian and
triangulated rectangles plus a plain-text file format are provided.
"""

import numpy as np
from dataclasses import dataclass, field

__all__ = [
    "Mesh2D",
    "MeshFormatError",
    "MeshTopologyError",
    "build_mesh",
    "gen_cartesian",
    "gen_triangular",
    "read_mesh",
    "write_mesh",
]


class MeshFormatError(ValueError):
    """Malformed mesh file (message carries the offending line number)."""


class MeshTopologyError(ValueError):
    """Inconsistent mesh connectivity or degenerate geometry."""


@dataclass(frozen=True)
class Mesh2D:
    """Cell-centered polygonal mesh with derived face connectivity.

    Attributes
    ----------
    vertices : (nv, 2) float array
        Vertex coordinates (x, z) in meters.
    cell_ptr, cell_vert : int arrays
        CSR layout of cell vertex loops (counter-clockwise).
    cell_centroid : (nc, 2) float array
    cell_area : (nc,) float array
    cell_zmin, cell_zmax : (nc,) float arrays
        Minimal / maximal vertical vertex coordinate of each cell.
    face_vertices : (nf, 2) int array
        Endpoint vertex indices per face.
    face_cells : (nf, 2) int array
        Adjacent cells; column 1 is -1 for boundary faces.
    face_normal : (nf, 2) float array
        Unit normal, pointing from face_cells[:, 0] to face_cells[:, 1]
        (outward for boundary faces).
    face_length, face_midpoint : float arrays
    face_tag : (nf,) object array
        Boundary tag name per boundary face, None on interior faces.
    cf_ptr, cf_face, cf_sign : int arrays
        CSR cell-to-face adjacency; sign is +1 where the cell is the
        first adjacent cell of the face, -1 otherwise.
    """

    vertices: np.ndarray
    cell_ptr: np.ndarray
    cell_vert: np.ndarray
    cell_centroid: np.ndarray
    cell_area: np.ndarray
    cell_zmin: np.ndarray
    cell_zmax: np.ndarray
    face_vertices: np.ndarray
    face_cells: np.ndarray
    face_normal: np.ndarray
    face_length: np.ndarray
    face_midpoint: np.ndarray
    face_tag: np.ndarray
    cf_ptr: np.ndarray = field(repr=False, default=None)
    cf_face: np.ndarray = field(repr=False, default=None)
    cf_sign: np.ndarray = field(repr=False, default=None)

    @property
    def n_cells(self):
        return len(self.cell_area)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.face_length)

    @property
    def interior_faces(self):
        return np.nonzero(self.face_cells[:, 1] >= 0)[0]

    @property
    def boundary_faces(self):
        return np.nonzero(self.face_cells[:, 1] < 0)[0]

    def cell_vertices(self, c):
        """Vertex indices of cell ``c`` in counter-clockwise order."""
        return self.cell_vert[self.cell_ptr[c]:self.cell_ptr[c + 1]]

    def faces_of_cell(self, c):
        """(face ids, orientation signs) of cell ``c``."""
        sl = slice(self.cf_ptr[c], self.cf_ptr[c + 1])
        return self.cf_face[sl], self.cf_sign[sl]

    def tag_names(self):
        """Sorted set of boundary tag names present on the mesh."""
        return sorted({t for t in self.face_tag if t is not None})


def _polygon_area_centroid(pts):
    """Signed area and centroid of a simple polygon (shoelace)."""
    x, z = pts[:, 0], pts[:, 1]
    xn, zn = np.roll(x, -1), np.roll(z, -1)
    cross = x * zn - xn * z
    area = 0.5 * cross.sum()
    if abs(area) < 1e-300:
        return 0.0, pts.mean(axis=0)
    cx = ((x + xn) * cross).sum() / (6.0 * area)
    cz = ((z + zn) * cross).sum() / (6.0 * area)
    return area, np.array([cx, cz])


def build_mesh(vertices, cells, tag_edges=None, default_tag="boundary"):
    """Assemble a validated :class:`Mesh2D` from vertices and cell loops.

    Parameters
    ----------
    vertices : (nv, 2) array-like
    cells : sequence of vertex-index sequences
        Each cell a simple polygon; orientation is normalized to CCW.
    tag_edges : dict, optional
        Maps unordered boundary vertex pairs ``(va, vb)`` to tag names.
        Untagged boundary faces receive ``default_tag``.

    Raises
    ------
    MeshTopologyError
        On out-of-range vertex indices, degenerate cells, or faces shared
        by more than two cells.
    """
    vertices = np.ascontiguousarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshTopologyError("vertices must be an (nv, 2) array")
    nv = len(vertices)
    n_cells = len(cells)
    if n_cells == 0:
        raise MeshTopologyError("mesh has no cells")

    cell_ptr = np.zeros(n_cells + 1, dtype=np.int64)
    cell_list = []
    centroid = np.empty((n_cells, 2))
    area = np.empty(n_cells)
    zmin = np.empty(n_cells)
    zmax = np.empty(n_cells)

    for c, vs in enumerate(cells):
        vs = np.asarray(vs, dtype=np.int64)
        if len(vs) < 3:
            raise MeshTopologyError(f"cell {c} has fewer than 3 vertices")
        if vs.min() < 0 or vs.max() >= nv:
            raise MeshTopologyError(
                f"cell {c} references vertex {int(vs.max())} "
                f"outside range 0..{nv - 1}")
        if len(np.unique(vs)) != len(vs):
            raise MeshTopologyError(f"cell {c} repeats a vertex")
        pts = vertices[vs]
        a, cen = _polygon_area_centroid(pts)
        if a < 0.0:  # normalize to CCW
            vs = vs[::-1].copy()
            a = -a
        if a <= 0.0:
            raise MeshTopologyError(f"cell {c} has non-positive area")
        cell_list.append(vs)
        cell_ptr[c + 1] = cell_ptr[c] + len(vs)
        centroid[c] = cen
        area[c] = a
        zmin[c] = pts[:, 1].min()
        zmax[c] = pts[:, 1].max()
        if not zmin[c] < zmax[c]:
            raise MeshTopologyError(f"cell {c} has zero vertical extent")
    cell_vert = np.concatenate(cell_list)

    # derive unique faces; first touching cell owns the orientation
    face_map = {}
    fv, fc, fn, flen, fmid = [], [], [], [], []
    cf_face_l, cf_sign_l = [], []
    for c, vs in enumerate(cell_list):
        ids, sgns = [], []
        for k in range(len(vs)):
            a, b = int(vs[k]), int(vs[(k + 1) % len(vs)])
            key = (a, b) if a < b else (b, a)
            if key not in face_map:
                d = vertices[b] - vertices[a]
                ln = float(np.hypot(d[0], d[1]))
                if ln <= 0.0:
                    raise MeshTopologyError(
                        f"zero-length face between vertices {a} and {b}")
                f = len(fv)
                face_map[key] = f
                fv.append((a, b))
                fc.append([c, -1])
                # edge traversed CCW in cell c: outward normal is (dz, -dx)
                fn.append((d[1] / ln, -d[0] / ln))
                flen.append(ln)
                fmid.append(0.5 * (vertices[a] + vertices[b]))
                sg = 1
            else:
                f = face_map[key]
                if fc[f][1] != -1:
                    raise MeshTopologyError(
                        f"face {key} shared by more than two cells")
                fc[f][1] = c
                sg = -1
            ids.append(f)
            sgns.append(sg)
        cf_face_l.append(np.array(ids, dtype=np.int64))
        cf_sign_l.append(np.array(sgns, dtype=np.int64))

    face_vertices = np.array(fv, dtype=np.int64)
    face_cells = np.array(fc, dtype=np.int64)
    face_normal = np.array(fn, dtype=float)
    face_length = np.array(flen, dtype=float)
    face_midpoint = np.array(fmid, dtype=float)

    face_tag = np.full(len(fv), None, dtype=object)
    boundary = face_cells[:, 1] < 0
    tag_edges = dict(tag_edges or {})
    tag_edges = {tuple(sorted(k)): v for k, v in tag_edges.items()}
    seen = set()
    for f in np.nonzero(boundary)[0]:
        key = tuple(sorted(face_vertices[f]))
        face_tag[f] = tag_edges.get(key, default_tag)
        seen.add(key)
    for key in tag_edges:
        if key not in seen:
            raise MeshTopologyError(
                f"boundary tag on edge {key} which is not a boundary face")

    cf_ptr = np.zeros(n_cells + 1, dtype=np.int64)
    cf_ptr[1:] = np.cumsum([len(x) for x in cf_face_l])
    mesh = Mesh2D(
        vertices=vertices,
        cell_ptr=cell_ptr,
        cell_vert=cell_vert,
        cell_centroid=centroid,
        cell_area=area,
        cell_zmin=zmin,
        cell_zmax=zmax,
        face_vertices=face_vertices,
        face_cells=face_cells,
        face_normal=face_normal,
        face_length=face_length,
        face_midpoint=face_midpoint,
        face_tag=face_tag,
        cf_ptr=cf_ptr,
        cf_face=np.concatenate(cf_face_l),
        cf_sign=np.concatenate(cf_sign_l),
    )
    for arr in (mesh.vertices, mesh.cell_vert, mesh.cell_centroid,
                mesh.cell_area, mesh.face_cells, mesh.face_normal,
                mesh.face_length, mesh.face_midpoint):
        arr.setflags(write=False)
    _check_closure(mesh)
    return mesh


def _check_closure(mesh):
    """Assert the closed-polygon identity sum(n * L) = 0 per cell."""
    nl = mesh.face_normal * mesh.face_length[:, None]
    acc = np.add.reduceat(nl[mesh.cf_face] * mesh.cf_sign[:, None],
                          mesh.cf_ptr[:-1], axis=0)
    scale = np.sqrt(mesh.cell_area)
    bad = np.abs(acc).max(axis=1) > 1e-10 * np.maximum(scale, 1.0)
    if bad.any():
        raise MeshTopologyError(
            f"cell {int(np.nonzero(bad)[0][0])} face loop does not close")


def gen_cartesian(nx, nz, width, height):
    """Uniform nx-by-nz rectangle mesh on [0, width] x [0, height].

    Boundary faces are tagged left / right / bottom / top.
    """
    _check_gen_args(nx, nz, width, height)
    verts = _rect_vertices(nx, nz, width, height)

    def vid(i, j):
        return j * (nx + 1) + i

    cells = []
    for j in range(nz):
        for i in range(nx):
            cells.append([vid(i, j), vid(i + 1, j),
                          vid(i + 1, j + 1), vid(i, j + 1)])
    tag_edges = _rect_boundary_tags(nx, nz, vid)
    return build_mesh(verts, cells, tag_edges)


def gen_triangular(nx, nz, width, height):
    """Triangulated rectangle: each cell split along a diagonal.

    Diagonal direction alternates in a checkerboard pattern to avoid a
    directional bias; 2*nx*nz triangles total.
    """
    _check_gen_args(nx, nz, width, height)
    verts = _rect_vertices(nx, nz, width, height)

    def vid(i, j):
        return j * (nx + 1) + i

    cells = []
    for j in range(nz):
        for i in range(nx):
            sw, se = vid(i, j), vid(i + 1, j)
            ne, nw = vid(i + 1, j + 1), vid(i, j + 1)
            if (i + j) % 2 == 0:  # diagonal sw-ne
                cells.append([sw, se, ne])
                cells.append([sw, ne, nw])
            else:  # diagonal se-nw
                cells.append([sw, se, nw])
                cells.append([se, ne, nw])
    tag_edges = _rect_boundary_tags(nx, nz, vid)
    return build_mesh(verts, cells, tag_edges)


def _rect_vertices(nx, nz, width, height):
    xs = np.linspace(0.0, width, nx + 1)
    zs = np.linspace(0.0, height, nz + 1)
    xx, zz = np.meshgrid(xs, zs)  # row j, column i -> id j*(nx+1)+i
    return np.column_stack([xx.ravel(), zz.ravel()])


def _check_gen_args(nx, nz, width, height):
    if nx < 1 or nz < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {nx}x{nz}")
    if width <= 0 or height <= 0:
        raise ValueError(
            f"domain dimensions must be positive, got {width}x{height}")


def _rect_boundary_tags(nx, nz, vid):
    tags = {}
    for i in range(nx):
        tags[(vid(i, 0), vid(i + 1, 0))] = "bottom"
        tags[(vid(i, nz), vid(i + 1, nz))] = "top"
    for j in range(nz):
        tags[(vid(0, j), vid(0, j + 1))] = "left"
        tags[(vid(nx, j), vid(nx, j + 1))] = "right"
    return tags


def write_mesh(mesh, path):
    """Write the plain-text mesh format.

    Format: header ``MESH2D <nvertices> <ncells>``, vertex lines
    ``v <x> <z>``, cell lines ``c <k> <v1> ... <vk>``, and one
    ``b <va> <vb> <tag>`` line per tagged boundary face.
    """
    with open(path, "w") as fh:
        fh.write(f"MESH2D {mesh.n_vertices} {mesh.n_cells}\n")
        for x, z in mesh.vertices:
            fh.write(f"v {float(x)!r} {float(z)!r}\n")
        for c in range(mesh.n_cells):
            vs = mesh.cell_vertices(c)
            fh.write("c %d %s\n" % (len(vs), " ".join(str(v) for v in vs)))
        for f in mesh.boundary_faces:
            a, b = mesh.face_vertices[f]
            fh.write(f"b {a} {b} {mesh.face_tag[f]}\n")


def read_mesh(path):
    """Read the plain-text mesh format written by :func:`write_mesh`.

    Raises
    ------
    MeshFormatError
        On malformed content; the message names the line number.
    MeshTopologyError
        On inconsistent connectivity.
    """
    with open(path) as fh:
        lines = fh.readlines()

    def fail(lineno, msg):
        raise MeshFormatError(f"{path}:{lineno}: {msg}")

    if not lines:
        raise MeshFormatError(f"{path}:1: empty mesh file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "MESH2D":
        fail(1, "expected header 'MESH2D <nvertices> <ncells>'")
    try:
        nv, nc = int(head[1]), int(head[2])
    except ValueError:
        fail(1, "header counts must be integers")

    verts, cells, tag_edges = [], [], {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        kind = parts[0]
        try:
            if kind == "v":
                if len(parts) != 3:
                    fail(lineno, "vertex line needs 2 coordinates")
                verts.append((float(parts[1]), float(parts[2])))
            elif kind == "c":
                k = int(parts[1])
                if len(parts) != 2 + k:
                    fail(lineno, f"cell line announces {k} vertices "
                                 f"but carries {len(parts) - 2}")
                cells.append([int(p) for p in parts[2:]])
            elif kind == "b":
                if len(parts) != 4:
                    fail(lineno, "boundary line needs 'b <va> <vb> <tag>'")
                tag_edges[(int(parts[1]), int(parts[2]))] = parts[3]
            else:
                fail(lineno, f"unknown record type {kind!r}")
        except MeshFormatError:
            raise
        except ValueError:
            fail(lineno, "malformed number")
    if len(verts) != nv:
        raise MeshFormatError(
            f"{path}: header announces {nv} vertices, found {len(verts)}")
    if len(cells) != nc:
        raise MeshFormatError(
            f"{path}: header announces {nc} cells, found {len(cells)}")
    return build_mesh(np.array(verts), cells, tag_edges)
