"""2D cell-centered polygonal meshes for finite-volume discretization.

Meshes are immutable after construction: vertices, polygonal cells,
derived unique faces with orientation, and the per-cell vertical extents
the unconfined water-content model needs. Generators for Cartesian and
triangulated rectangles plus a plain-text file format are provided.
"""

from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np

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
    cf_face, cf_sign : int arrays
        Cell-to-face adjacency, laid out by cell_ptr (a cell has as many
        faces as vertices, face k joining vertices k and k+1 of its
        loop); sign is +1 where the cell is the first adjacent cell of
        the face, -1 otherwise.
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
    cf_face: np.ndarray = field(repr=False)
    cf_sign: np.ndarray = field(repr=False)

    def __post_init__(self):
        # every array, also one passed in through dataclasses.replace
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)

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

    def faces_of_cell(self, c):
        """(face ids, orientation signs) of cell ``c``."""
        sl = slice(self.cell_ptr[c], self.cell_ptr[c + 1])
        return self.cf_face[sl], self.cf_sign[sl]

    def tag_names(self):
        """Sorted set of boundary tag names present on the mesh."""
        return sorted(set(self.face_tag[self.boundary_faces]))


def build_mesh(vertices, cells, tag_edges=None):
    """Assemble a validated :class:`Mesh2D` from vertices and cell loops.

    Parameters
    ----------
    vertices : (nv, 2) array-like
    cells : sequence of vertex-index sequences
        Each cell a simple polygon; orientation is normalized to CCW.
    tag_edges : dict, optional
        Maps unordered boundary vertex pairs ``(va, vb)`` to tag names.
        Untagged boundary faces are tagged ``"boundary"``.

    Raises
    ------
    MeshTopologyError
        On non-finite vertex coordinates, out-of-range vertex indices,
        degenerate cells, faces shared by more than two cells, or an
        edge tagged twice; of faulty cells the lowest-numbered is named.
    """
    vertices = np.array(vertices, dtype=float, order="C")  # ours to freeze
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshTopologyError("vertices must be an (nv, 2) array")
    bad = ~np.isfinite(vertices).all(axis=1)
    if bad.any():
        raise MeshTopologyError(
            f"vertex {int(bad.argmax())} has a non-finite coordinate")
    nv = len(vertices)
    n_cells = len(cells)
    if n_cells == 0:
        raise MeshTopologyError("mesh has no cells")

    # cell loops as one flat CSR
    lens = np.fromiter(map(len, cells), dtype=np.int64, count=n_cells)
    cell_ptr = np.zeros(n_cells + 1, dtype=np.int64)
    np.cumsum(lens, out=cell_ptr[1:])
    flat = np.fromiter(chain.from_iterable(cells), dtype=np.int64,
                       count=int(cell_ptr[-1]))
    cell_of = np.repeat(np.arange(n_cells), lens)
    in_range = (flat >= 0) & (flat < nv)
    out_of_range = np.bincount(cell_of, weights=~in_range,
                               minlength=n_cells) > 0
    xy = vertices[np.where(in_range, flat, 0)] if nv \
        else np.zeros((len(flat), 2))

    # per vertex count: repeats, signed shoelace area and centroid, each
    # row summed in loop order as a single polygon's would be
    repeats = np.zeros(n_cells, dtype=bool)
    area = np.zeros(n_cells)
    centroid = np.zeros((n_cells, 2))
    zmin = np.zeros(n_cells)
    zmax = np.zeros(n_cells)
    slots = []  # (cell ids, (n, k) positions in flat) per vertex count
    for k in np.unique(lens[lens >= 3]).tolist():
        ids = np.nonzero(lens == k)[0]
        pos = cell_ptr[ids, None] + np.arange(k)
        slots.append((ids, pos))
        srt = np.sort(flat[pos], axis=1)
        repeats[ids] = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        x, z = xy[pos, 0], xy[pos, 1]
        xn, zn = np.roll(x, -1, axis=1), np.roll(z, -1, axis=1)
        cross = x * zn - xn * z
        a = 0.5 * cross.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            centroid[ids, 0] = ((x + xn) * cross).sum(axis=1) / (6.0 * a)
            centroid[ids, 1] = ((z + zn) * cross).sum(axis=1) / (6.0 * a)
        area[ids] = a
        zmin[ids] = z.min(axis=1)
        zmax[ids] = z.max(axis=1)

    # the checks in the order a single cell is validated
    faults = np.column_stack([
        lens < 3, out_of_range, repeats, np.abs(area) < 1e-300,
        ~(zmin < zmax)])
    if faults.any():
        c = int(np.nonzero(faults.any(axis=1))[0][0])
        check = int(np.nonzero(faults[c])[0][0])
        if check == 1:
            vmax = int(flat[cell_ptr[c]:cell_ptr[c + 1]].max())
            raise MeshTopologyError(
                f"cell {c} references vertex {vmax} "
                f"outside range 0..{nv - 1}")
        raise MeshTopologyError(f"cell {c} " + (
            "has fewer than 3 vertices", None, "repeats a vertex",
            "has non-positive area", "has zero vertical extent")[check])

    # normalize clockwise loops to counter-clockwise
    cell_vert = flat.copy()
    for ids, pos in slots:
        cw = area[ids] < 0.0
        cell_vert[pos[cw]] = flat[pos[cw]][:, ::-1]
    area = np.abs(area)

    # unique faces over the loop edges (a -> b); the first touching
    # edge, in cell and loop order, numbers the face and owns its
    # orientation
    nxt = np.arange(1, len(flat) + 1)
    nxt[cell_ptr[1:] - 1] = cell_ptr[:-1]
    ea, eb = cell_vert, cell_vert[nxt]
    key = np.minimum(ea, eb) * nv + np.maximum(ea, eb)
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    cf_face = rank[inv]
    first = first[order]
    n_faces = len(first)
    # occurrence number of every edge among those of its face
    by_face = np.argsort(cf_face, kind="stable")
    count = np.bincount(cf_face, minlength=n_faces)
    start = np.zeros(n_faces, dtype=np.int64)
    np.cumsum(count[:-1], out=start[1:])
    occ = np.empty_like(by_face)
    occ[by_face] = np.arange(len(by_face)) - start[cf_face[by_face]]

    face_vertices = np.column_stack([ea[first], eb[first]])
    d = vertices[face_vertices[:, 1]] - vertices[face_vertices[:, 0]]
    face_length = np.hypot(d[:, 0], d[:, 1])
    # faults in the order the edges are visited
    short = np.zeros(len(flat), dtype=bool)
    short[first] = face_length <= 0.0
    bad = np.nonzero(short | (occ >= 2))[0]
    if len(bad):
        e = int(bad[0])
        a, b = int(ea[e]), int(eb[e])
        if short[e]:
            raise MeshTopologyError(
                f"zero-length face between vertices {a} and {b}")
        raise MeshTopologyError(
            f"face {(min(a, b), max(a, b))} shared by more than two cells")

    face_cells = np.full((n_faces, 2), -1, dtype=np.int64)
    face_cells[:, 0] = cell_of[first]
    second = occ == 1
    face_cells[cf_face[second], 1] = cell_of[second]
    cf_sign = np.where(occ == 0, 1, -1)
    # edge traversed CCW in its owner cell: outward normal is (dz, -dx)
    face_normal = np.column_stack([d[:, 1] / face_length,
                                   -d[:, 0] / face_length])
    face_midpoint = 0.5 * (vertices[face_vertices[:, 0]] +
                           vertices[face_vertices[:, 1]])

    face_tag = np.full(n_faces, None, dtype=object)
    boundary = np.nonzero(face_cells[:, 1] < 0)[0]
    for (a, b), tag in (tag_edges or {}).items():
        if a < b and (b, a) in tag_edges:
            raise MeshTopologyError(f"edge {int(a), int(b)} tagged twice: "
                                    f"{tag!r} and {tag_edges[b, a]!r}")
    tag_edges = {tuple(sorted(map(int, k))): v
                 for k, v in (tag_edges or {}).items()}
    lo = np.minimum(face_vertices[boundary, 0], face_vertices[boundary, 1])
    hi = np.maximum(face_vertices[boundary, 0], face_vertices[boundary, 1])
    keys = list(zip(lo.tolist(), hi.tolist()))
    face_tag[boundary] = [tag_edges.get(k, "boundary") for k in keys]
    seen = set(keys)
    for key in tag_edges:
        if key not in seen:
            raise MeshTopologyError(
                f"boundary tag on edge {key} which is not a boundary face")

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
        cf_face=cf_face,
        cf_sign=cf_sign,
    )
    _check_closure(mesh)
    return mesh


def _check_closure(mesh):
    """Assert the closed-polygon identity sum(n * L) = 0 per cell."""
    nl = mesh.face_normal * mesh.face_length[:, None]
    acc = np.add.reduceat(nl[mesh.cf_face] * mesh.cf_sign[:, None],
                          mesh.cell_ptr[:-1], axis=0)
    scale = np.sqrt(mesh.cell_area)
    bad = np.abs(acc).max(axis=1) > 1e-10 * np.maximum(scale, 1.0)
    if bad.any():
        raise MeshTopologyError(
            f"cell {int(np.nonzero(bad)[0][0])} face loop does not close")


def gen_cartesian(nx, nz, width, height):
    """Uniform nx-by-nz rectangle mesh on [0, width] x [0, height].

    Boundary faces are tagged left / right / bottom / top.
    """
    return _gen_rect(nx, nz, width, height,
                     lambda i, j, sw, se, ne, nw: [[sw, se, ne, nw]])


def gen_triangular(nx, nz, width, height):
    """Triangulated rectangle: each cell split along a diagonal.

    Diagonal direction alternates in a checkerboard pattern to avoid a
    directional bias; 2*nx*nz triangles total.
    """
    def split(i, j, sw, se, ne, nw):
        if (i + j) % 2 == 0:  # diagonal sw-ne
            return [[sw, se, ne], [sw, ne, nw]]
        return [[sw, se, nw], [se, ne, nw]]  # diagonal se-nw

    return _gen_rect(nx, nz, width, height, split)


def _gen_rect(nx, nz, width, height, split):
    """The nx-by-nz grid of squares on [0, width] x [0, height], square
    (i, j) with corner vertices sw, se, ne, nw becoming the cells
    split(i, j, sw, se, ne, nw). Vertex (i, j) has id j*(nx+1) + i;
    boundary faces are tagged left / right / bottom / top."""
    if nx < 1 or nz < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {nx}x{nz}")
    if width <= 0 or height <= 0:
        raise ValueError(
            f"domain dimensions must be positive, got {width}x{height}")
    xx, zz = np.meshgrid(np.linspace(0.0, width, nx + 1),
                         np.linspace(0.0, height, nz + 1))
    verts = np.column_stack([xx.ravel(), zz.ravel()])

    def vid(i, j):
        return j * (nx + 1) + i

    cells = [cell for j in range(nz) for i in range(nx)
             for cell in split(i, j, vid(i, j), vid(i + 1, j),
                               vid(i + 1, j + 1), vid(i, j + 1))]
    tags = {}
    for i in range(nx):
        tags[(vid(i, 0), vid(i + 1, 0))] = "bottom"
        tags[(vid(i, nz), vid(i + 1, nz))] = "top"
    for j in range(nz):
        tags[(vid(0, j), vid(0, j + 1))] = "left"
        tags[(vid(nx, j), vid(nx, j + 1))] = "right"
    return build_mesh(verts, cells, tags)


def write_mesh(mesh, path):
    """Write the plain-text mesh format.

    Format: header ``MESH2D <nvertices> <ncells>``, vertex lines
    ``v <x> <z>``, cell lines ``c <k> <v1> ... <vk>``, and one
    ``b <va> <vb> <tag>`` line per tagged boundary face.
    """
    ptr = mesh.cell_ptr.tolist()
    verts = mesh.cell_vert.tolist()
    bf = mesh.boundary_faces
    with open(path, "w") as fh:
        fh.write(f"MESH2D {mesh.n_vertices} {mesh.n_cells}\n")
        fh.writelines(f"v {x!r} {z!r}\n" for x, z in mesh.vertices.tolist())
        fh.writelines(f"c {b - a} {' '.join(map(str, verts[a:b]))}\n"
                      for a, b in zip(ptr, ptr[1:]))
        fh.writelines(f"b {a} {b} {tag}\n" for (a, b), tag in
                      zip(mesh.face_vertices[bf].tolist(), mesh.face_tag[bf]))


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

    verts, cells, tag_edges, b_line = [], [], {}, {}
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
                if len(parts) < 2:
                    fail(lineno, "cell line needs 'c <k> <v1> ... <vk>'")
                k = int(parts[1])
                if len(parts) != 2 + k:
                    fail(lineno, f"cell line announces {k} vertices "
                                 f"but carries {len(parts) - 2}")
                cells.append([int(p) for p in parts[2:]])
            elif kind == "b":
                if len(parts) != 4:
                    fail(lineno, "boundary line needs 'b <va> <vb> <tag>'")
                edge = tuple(sorted((int(parts[1]), int(parts[2]))))
                if edge in b_line:
                    fail(lineno, f"edge {edge} tagged on line {b_line[edge]}")
                tag_edges[edge], b_line[edge] = parts[3], lineno
            else:
                fail(lineno, f"unknown record type {kind!r}")
        except MeshFormatError:
            raise
        except ValueError:
            fail(lineno, "malformed number")
    if len(verts) != nv:
        raise MeshFormatError(
            f"{path}:1: header announces {nv} vertices, found {len(verts)}")
    if len(cells) != nc:
        raise MeshFormatError(
            f"{path}:1: header announces {nc} cells, found {len(cells)}")
    return build_mesh(np.array(verts), cells, tag_edges)
