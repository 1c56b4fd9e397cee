"""Mesh generation, invariants, and file round-trips."""

import re
from dataclasses import fields, replace

import numpy as np
import pytest

import richardsfv.mesh as mesh_mod
from richardsfv.mesh import (Mesh2D, MeshFormatError, MeshTopologyError,
                             _check_closure, build_mesh, gen_cartesian,
                             gen_triangular, read_mesh, write_mesh)


def interior_face_count(nx, nz):
    return nz * (nx - 1) + nx * (nz - 1)


def test_cartesian_counts_and_sizes():
    m = gen_cartesian(20, 20, 10.0, 10.0)
    assert m.n_cells == 400
    assert np.allclose(m.cell_area, 0.25)  # 0.5 m cells
    assert len(m.interior_faces) == interior_face_count(20, 20)


def test_cartesian_80x80_interior_faces():
    # combinatorial oracle: nz*(nx-1) + nx*(nz-1) = 2*80*79 = 12640
    m = gen_cartesian(80, 80, 10.0, 10.0)
    assert m.n_cells == 6400
    assert np.allclose(m.cell_area, 0.125 ** 2)
    assert len(m.interior_faces) == 12640


def test_single_cell():
    m = gen_cartesian(1, 1, 1.0, 1.0)
    assert m.n_cells == 1
    assert len(m.boundary_faces) == 4
    assert len(m.interior_faces) == 0
    assert np.isclose(m.cell_area[0], 1.0)
    assert m.cell_zmin[0] == 0.0 and m.cell_zmax[0] == 1.0


@pytest.mark.parametrize("gen,factor", [(gen_cartesian, 1),
                                        (gen_triangular, 2)])
@pytest.mark.parametrize("nx,nz,w,h", [(3, 4, 2.0, 5.0), (7, 2, 1.0, 1.0),
                                       (20, 20, 10.0, 10.0)])
def test_total_area(gen, factor, nx, nz, w, h):
    m = gen(nx, nz, w, h)
    assert m.n_cells == factor * nx * nz
    assert abs(m.cell_area.sum() - w * h) <= 1e-12 * w * h


def test_triangular_1900_cell_grid():
    m = gen_triangular(31, 31, 10.0, 10.0)
    assert m.n_cells == 1922  # the ~1900-cell benchmark grid


def test_triangular_minimal():
    m = gen_triangular(1, 1, 1.0, 1.0)
    assert m.n_cells == 2
    assert len(m.interior_faces) == 1


def test_centroids_at_cell_centers():
    m = gen_cartesian(2, 2, 2.0, 2.0)
    expected = {(0.5, 0.5), (1.5, 0.5), (0.5, 1.5), (1.5, 1.5)}
    got = {(round(x, 12), round(z, 12)) for x, z in m.cell_centroid}
    assert got == expected


@pytest.mark.parametrize("gen", [gen_cartesian, gen_triangular])
def test_closed_polygon_identity(gen):
    # sum of outward normal * length over each cell's faces vanishes
    m = gen(5, 3, 3.0, 2.0)
    nl = m.face_normal * m.face_length[:, None]
    for c in range(m.n_cells):
        fids, sgns = m.faces_of_cell(c)
        assert np.abs((nl[fids] * sgns[:, None]).sum(axis=0)).max() < 1e-12


@pytest.mark.parametrize("pick", ["boundary", "interior"])
def test_check_closure_names_first_open_cell(pick):
    m = gen_triangular(4, 3, 2.0, 1.0)
    faces = m.boundary_faces if pick == "boundary" else m.interior_faces
    f = faces[len(faces) // 2]
    normal = m.face_normal.copy()
    normal[f] = normal[f] @ np.array([[0.8, 0.6], [-0.6, 0.8]])  # rotate
    bad = replace(m, face_normal=normal)
    cells = m.face_cells[f]
    first = int(cells[cells >= 0].min())
    with pytest.raises(MeshTopologyError,
                       match=rf"^cell {first} face loop does not close$"):
        _check_closure(bad)
    _check_closure(m)


def test_face_adjacency_invariant():
    m = gen_triangular(4, 4, 1.0, 1.0)
    counts = np.zeros(m.n_faces, dtype=int)
    for c in range(m.n_cells):
        fids, _ = m.faces_of_cell(c)
        counts[fids] += 1
    assert (counts[m.interior_faces] == 2).all()
    assert (counts[m.boundary_faces] == 1).all()
    assert (m.face_length > 0).all()
    assert (m.cell_area > 0).all()
    assert (m.cell_zmin < m.cell_zmax).all()


def test_boundary_normals_point_outward():
    m = gen_cartesian(3, 3, 1.0, 1.0)
    for f in m.boundary_faces:
        c = m.face_cells[f, 0]
        outward = m.face_midpoint[f] - m.cell_centroid[c]
        assert np.dot(outward, m.face_normal[f]) > 0


def test_normal_points_from_first_to_second_cell():
    m = gen_cartesian(2, 1, 2.0, 1.0)
    (f,) = m.interior_faces
    cl, cr = m.face_cells[f]
    d = m.cell_centroid[cr] - m.cell_centroid[cl]
    assert np.dot(d, m.face_normal[f]) > 0


def test_boundary_tags_complete():
    m = gen_cartesian(4, 3, 1.0, 1.0)
    assert m.tag_names() == ["bottom", "left", "right", "top"]
    for f in m.boundary_faces:
        assert m.face_tag[f] is not None
    sides = {t: 0 for t in m.tag_names()}
    for f in m.boundary_faces:
        sides[m.face_tag[f]] += 1
    assert sides == {"bottom": 4, "top": 4, "left": 3, "right": 3}


@pytest.mark.parametrize("bad", [(0, 1, 1.0, 1.0), (1, 0, 1.0, 1.0),
                                 (1, 1, 0.0, 1.0), (1, 1, 1.0, -2.0)])
def test_generator_rejects_bad_dimensions(bad):
    with pytest.raises(ValueError):
        gen_cartesian(*bad)
    with pytest.raises(ValueError):
        gen_triangular(*bad)


def test_write_read_roundtrip(tmp_path):
    m = gen_cartesian(2, 2, 1.0, 1.0)
    path = tmp_path / "grid.msh"
    write_mesh(m, path)
    m2 = read_mesh(path)
    assert m2.n_cells == m.n_cells
    assert np.array_equal(m2.cell_vert, m.cell_vert)
    assert np.array_equal(m2.face_cells, m.face_cells)
    assert np.allclose(m2.vertices, m.vertices)
    assert list(m2.face_tag) == list(m.face_tag)


def test_roundtrip_triangular(tmp_path):
    m = gen_triangular(3, 2, 2.0, 1.0)
    path = tmp_path / "tri.msh"
    write_mesh(m, path)
    m2 = read_mesh(path)
    assert np.allclose(m2.cell_area, m.cell_area)
    assert np.allclose(m2.face_normal, m.face_normal)


def test_write_mesh_exact_bytes(tmp_path):
    path = tmp_path / "tri.msh"
    write_mesh(gen_triangular(3, 1, 1.0, 0.5), path)
    assert path.read_text() == (
        "MESH2D 8 6\n"
        "v 0.0 0.0\nv 0.3333333333333333 0.0\nv 0.6666666666666666 0.0\n"
        "v 1.0 0.0\nv 0.0 0.5\nv 0.3333333333333333 0.5\n"
        "v 0.6666666666666666 0.5\nv 1.0 0.5\n"
        "c 3 0 1 5\nc 3 0 5 4\nc 3 1 2 5\nc 3 2 6 5\nc 3 2 3 7\n"
        "c 3 2 7 6\n"
        "b 0 1 bottom\nb 5 4 top\nb 4 0 left\nb 1 2 bottom\nb 6 5 top\n"
        "b 2 3 bottom\nb 3 7 right\nb 7 6 top\n")


def test_read_empty_file(tmp_path):
    path = tmp_path / "empty.msh"
    path.write_text("")
    with pytest.raises(MeshFormatError, match="empty"):
        read_mesh(path)


def test_read_bad_header(tmp_path):
    path = tmp_path / "bad.msh"
    path.write_text("MESHXX 1 2\n")
    with pytest.raises(MeshFormatError, match=":1:"):
        read_mesh(path)


def test_read_missing_vertex_reference(tmp_path):
    path = tmp_path / "badcell.msh"
    path.write_text("MESH2D 3 1\nv 0 0\nv 1 0\nv 0 1\nc 3 0 1 7\n")
    with pytest.raises(MeshTopologyError, match="vertex"):
        read_mesh(path)


def test_read_malformed_number_names_line(tmp_path):
    path = tmp_path / "badnum.msh"
    path.write_text("MESH2D 1 0\nv 0 zz\n")
    with pytest.raises(MeshFormatError, match=":2:"):
        read_mesh(path)


def test_read_cell_line_without_count_names_line(tmp_path):
    path = tmp_path / "bare.msh"
    path.write_text("MESH2D 3 1\nv 0 0\nv 1 0\nv 0 1\nc\n")
    with pytest.raises(MeshFormatError,
                       match=re.escape(f"{path}:5: cell line needs")):
        read_mesh(path)


def test_read_count_mismatch(tmp_path):
    path = tmp_path / "short.msh"
    path.write_text("MESH2D 4 1\nv 0 0\nv 1 0\nv 0 1\nc 3 0 1 2\n")
    with pytest.raises(MeshFormatError, match="vertices"):
        read_mesh(path)


TRIANGLE = "v 0 0\nv 1 0\nv 0 1\n"


@pytest.mark.parametrize("text, lineno, message", [
    ("MESH2D 3 x\n", 1, "header counts must be integers"),
    ("MESH2D 3 1\nv 0 0 0\n", 2, "vertex line needs 2 coordinates"),
    ("MESH2D 3 1\n" + TRIANGLE + "c 3 0 1 2\nb 0 1\n", 6,
     "boundary line needs 'b <va> <vb> <tag>'"),
    ("MESH2D 3 1\n" + TRIANGLE + "c 4 0 1 2\n", 5,
     "cell line announces 4 vertices but carries 3"),
    ("MESH2D 3 1\n" + TRIANGLE + "f 0 1 2\n", 5,
     "unknown record type 'f'"),
    ("MESH2D 3 2\n" + TRIANGLE + "c 3 0 1 2\n", 1,
     "header announces 2 cells, found 1"),
    # blank and comment lines are skipped, yet counted
    ("MESH2D 3 1\n\n# v 5 5\n  \n" + TRIANGLE + "c 3 0 1 2\n  #c\nq\n", 10,
     "unknown record type 'q'"),
], ids=["header-count", "vertex-arity", "boundary-arity", "cell-arity",
        "record-type", "cell-count", "skipped-lines"])
def test_read_error_names_its_line(tmp_path, text, lineno, message):
    path = tmp_path / "bad.msh"
    path.write_text(text)
    with pytest.raises(MeshFormatError) as err:
        read_mesh(path)
    assert str(err.value) == f"{path}:{lineno}: {message}"


def test_tag_on_interior_edge_rejected(tmp_path):
    m = gen_cartesian(2, 1, 2.0, 1.0)
    (f,) = m.interior_faces
    a, b = m.face_vertices[f]
    path = tmp_path / "badtag.msh"
    write_mesh(m, path)
    with open(path, "a") as fh:
        fh.write(f"b {a} {b} oops\n")
    with pytest.raises(MeshTopologyError, match="boundary"):
        read_mesh(path)


def test_edge_tagged_twice_refused():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    with pytest.raises(MeshTopologyError, match=re.escape(
            "edge (0, 1) tagged twice: 'bottom' and 'top'") + "$"):
        build_mesh(verts, [[0, 1, 2, 3]], {(0, 1): "bottom", (1, 0): "top"})


@pytest.mark.parametrize("tag_edges, message", [
    ({(1, 3): "diag"},
     "boundary tag on edge (1, 3) which is not a boundary face"),
    ({(0, 1): "bottom", (1, 0): "top"},
     "edge (0, 1) tagged twice: 'bottom' and 'top'"),
], ids=["interior", "twice"])
def test_tag_errors_print_numpy_keys_as_ints(tag_edges, message):
    # keys taken from mesh arrays are numpy integers
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    keys = {tuple(np.int64(v) for v in k): tag
            for k, tag in tag_edges.items()}
    with pytest.raises(MeshTopologyError, match=re.escape(message) + "$"):
        build_mesh(verts, [[0, 1, 3], [1, 2, 3]], keys)


@pytest.mark.parametrize("again", ["0 1", "1 0"])
def test_read_repeated_boundary_line_names_it(tmp_path, again):
    path = tmp_path / "twice.msh"
    path.write_text("MESH2D 3 1\n" + TRIANGLE + "c 3 0 1 2\n"
                    f"b 0 1 bottom\nb 1 2 right\nb {again} top\n")
    with pytest.raises(MeshFormatError) as err:
        read_mesh(path)
    assert str(err.value) == \
        f"{path}:8: edge (0, 1) tagged on line 6"


def test_untagged_boundary_gets_default():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    m = build_mesh(verts, [[0, 1, 2, 3]])
    assert m.tag_names() == ["boundary"]


def test_mesh_arrays_read_only():
    # every field, also an array passed in through dataclasses.replace
    m = gen_triangular(3, 2, 3.0, 2.0)
    for mesh in (m, replace(m, face_tag=m.face_tag.copy())):
        for fld in fields(Mesh2D):
            assert not getattr(mesh, fld.name).flags.writeable, fld.name


def test_build_mesh_leaves_caller_vertices_alone():
    verts = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    m = build_mesh(verts, [[0, 1, 2, 3]])
    assert verts.flags.writeable
    verts[0, 0] = -1.0
    assert m.vertices[0, 0] == 0.0


def test_degenerate_cells_rejected():
    verts = [(0, 0), (1, 0), (2, 0), (0, 1)]
    with pytest.raises(MeshTopologyError):
        build_mesh(verts, [[0, 1, 2]])  # collinear, zero area
    with pytest.raises(MeshTopologyError):
        build_mesh(verts, [[0, 1, 1]])  # repeated vertex
    with pytest.raises(MeshTopologyError, match="^mesh has no cells$"):
        build_mesh([(0, 0), (1, 0), (1, 1)], [])
    with pytest.raises(MeshTopologyError, match="^mesh has no vertices$"):
        build_mesh(np.empty((0, 2)), [[0, 1, 2]])
    with pytest.raises(MeshTopologyError,
                       match=r"^vertices must be an \(nv, 2\) array$"):
        build_mesh([(0, 0, 0), (1, 0, 0), (1, 1, 0)], [[0, 1, 2]])


def test_cw_cell_is_normalized_to_ccw():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    m = build_mesh(verts, [[3, 2, 1, 0]])  # clockwise input
    assert m.cell_area[0] > 0
    for f in m.boundary_faces:
        c = m.face_cells[f, 0]
        outward = m.face_midpoint[f] - m.cell_centroid[c]
        assert np.dot(outward, m.face_normal[f]) > 0


def test_shared_face_three_cells_rejected():
    verts = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0.5)]
    with pytest.raises(MeshTopologyError):
        build_mesh(verts, [[0, 1, 2], [1, 3, 2], [2, 0, 1]])


# -- array build_mesh against the per-cell loop it replaced ---------------

def _loop_polygon_area_centroid(pts):
    x, z = pts[:, 0], pts[:, 1]
    xn, zn = np.roll(x, -1), np.roll(z, -1)
    cross = x * zn - xn * z
    area = 0.5 * cross.sum()
    if abs(area) < 1e-300:
        return 0.0, pts.mean(axis=0)
    cx = ((x + xn) * cross).sum() / (6.0 * area)
    cz = ((z + zn) * cross).sum() / (6.0 * area)
    return area, np.array([cx, cz])


def _loop_build_mesh(vertices, cells, tag_edges=None):
    """Reference: the per-cell, per-edge loop build of a Mesh2D."""
    vertices = np.ascontiguousarray(vertices, dtype=float)
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
        a, cen = _loop_polygon_area_centroid(pts)
        if a < 0.0:
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
    face_tag = np.full(len(fv), None, dtype=object)
    tag_edges = {tuple(sorted(k)): v for k, v in (tag_edges or {}).items()}
    seen = set()
    for f in np.nonzero(face_cells[:, 1] < 0)[0]:
        key = tuple(sorted(face_vertices[f]))
        face_tag[f] = tag_edges.get(key, "boundary")
        seen.add(key)
    for key in tag_edges:
        if key not in seen:
            raise MeshTopologyError(
                f"boundary tag on edge {key} which is not a boundary face")
    return Mesh2D(
        vertices=vertices, cell_ptr=cell_ptr, cell_vert=cell_vert,
        cell_centroid=centroid, cell_area=area, cell_zmin=zmin,
        cell_zmax=zmax, face_vertices=face_vertices, face_cells=face_cells,
        face_normal=np.array(fn, dtype=float),
        face_length=np.array(flen, dtype=float),
        face_midpoint=np.array(fmid, dtype=float), face_tag=face_tag,
        cf_face=np.concatenate(cf_face_l),
        cf_sign=np.concatenate(cf_sign_l))


def generator_input(gen, *args):
    """The (vertices, cells, tag_edges) a generator passes to build_mesh."""
    seen = []

    def capture(vertices, cells, tag_edges=None):
        seen.append((vertices, cells, tag_edges))
        return build_mesh(vertices, cells, tag_edges)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_mod, "build_mesh", capture)
        gen(*args)
    return seen[0]


def renumbered(mesh_input, seed, block=64):
    """Vertex and cell ids shuffled within blocks of `block` numbers."""
    vertices, cells, tags = mesh_input
    rng = np.random.default_rng(seed)

    def local_perm(n):
        return np.argsort(np.arange(n) // block + rng.random(n),
                          kind="stable")

    new_to_old = local_perm(len(vertices))
    old_to_new = np.argsort(new_to_old)
    cells = [[int(old_to_new[v]) for v in cells[c]]
             for c in local_perm(len(cells))]
    tags = {(int(old_to_new[a]), int(old_to_new[b])): t
            for (a, b), t in tags.items()}
    return vertices[new_to_old], cells, tags


def mixed_input(nx=6, nz=4, seed=5):
    """Jittered grid of triangles, quads, pentagons and one (nx+3)-gon
    over the top row; every fourth loop is given clockwise."""
    xx, zz = np.meshgrid(np.arange(nx + 1.0), np.arange(nz + 1.0))
    verts = np.column_stack([xx.ravel(), zz.ravel()])
    inner = (verts[:, 0] % nx != 0) & (verts[:, 1] % nz != 0)
    rng = np.random.default_rng(seed)
    verts[inner] += rng.uniform(-0.15, 0.15, (inner.sum(), 2))

    def vid(i, j):
        return j * (nx + 1) + i

    cells = []
    for j in range(nz - 1):
        i = 0
        while i < nx:
            sw, se = vid(i, j), vid(i + 1, j)
            ne, nw = vid(i + 1, j + 1), vid(i, j + 1)
            if (i + j) % 3 == 0 and i + 2 <= nx:
                # pentagon over square i and half of square i + 1
                ee, en = vid(i + 2, j), vid(i + 2, j + 1)
                cells += [[sw, se, en, ne, nw], [se, ee, en]]
                i += 2
                continue
            if (i + j) % 3 == 1:
                cells += [[sw, se, ne], [sw, ne, nw]]
            else:
                cells.append([sw, se, ne, nw])
            i += 1
    cells.append([vid(i, nz - 1) for i in range(nx + 1)] +
                 [vid(nx, nz), vid(0, nz)])
    cells = [c[::-1] if k % 4 == 3 else c for k, c in enumerate(cells)]
    tags = {(vid(0, j + 1), vid(0, j)): "left" for j in range(nz)}
    tags.update({(vid(i, 0), vid(i + 1, 0)): "bottom" for i in range(nx)})
    return verts, cells, tags


ORACLE_INPUTS = {
    "cartesian20x20": lambda: generator_input(gen_cartesian, 20, 20,
                                              10.0, 10.0),
    "triangular31x31": lambda: generator_input(gen_triangular, 31, 31,
                                               10.0, 10.0),
    "triangular16x16-renumbered": lambda: renumbered(
        generator_input(gen_triangular, 16, 16, 10.0, 10.0), seed=3),
    "mixed": mixed_input,
}


@pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
def test_build_mesh_matches_loop_reference_bitwise(name):
    vertices, cells, tags = ORACLE_INPUTS[name]()
    m = build_mesh(vertices, cells, tags)
    ref = _loop_build_mesh(vertices, cells, tags)
    for fld in fields(Mesh2D):
        got, want = getattr(m, fld.name), getattr(ref, fld.name)
        if fld.name == "face_tag":
            assert list(got) == list(want)
        else:
            assert got.dtype == want.dtype, fld.name
            assert np.array_equal(got, want), fld.name


def test_mixed_input_covers_cell_kinds():
    vertices, cells, _ = mixed_input()
    m = build_mesh(vertices, cells)
    assert set(np.diff(m.cell_ptr).tolist()) == {3, 4, 5, 9}
    signed = [_loop_polygon_area_centroid(np.asarray(vertices)[c])[0]
              for c in cells]
    assert min(signed) < 0 < max(signed)  # clockwise input present


# vertices for the malformed-input cases: a unit grid 0..8 (row-major,
# 3 x 3) plus vertex 9 placed on top of vertex 4
_BAD_VERTS = [(i % 3, i // 3) for i in range(9)] + [(1, 1)]


@pytest.mark.parametrize("cells, message", [
    # cell 1 zero area, cell 3 repeats a vertex: the lower cell is named
    ([[0, 1, 4, 3], [0, 1, 2], [1, 2, 5, 4], [3, 4, 4, 6]],
     "cell 1 has non-positive area"),
    ([[0, 1, 4, 3], [0, 1, 2], [1, 2, 5, 4], [3, 4, 4, 6]][::-1],
     "cell 0 repeats a vertex"),
    ([[0, 1, 4, 3], [1, 2, 5, 4], [4, 5, 12], [3, 4]],
     "cell 2 references vertex 12 outside range 0..9"),
    ([[0, 1, 4, 3], [4, 5, -1, 7], [3, 4]],
     "cell 1 references vertex 7 outside range 0..9"),
    ([[0, 1, 4, 3], [3, 4], [4, 5, 12]],
     "cell 1 has fewer than 3 vertices"),
    ([[0, 1, 4, 3], [1, 2, 5, 4, 9], [4, 5, 8, 7]],
     "zero-length face between vertices 4 and 9"),
    ([[0, 1, 4, 3], [3, 4, 1], [1, 4, 3], [1, 2, 5, 9]],
     "face (1, 4) shared by more than two cells"),
])
def test_malformed_cells_reported_as_by_loop(cells, message):
    with pytest.raises(MeshTopologyError) as ref:
        _loop_build_mesh(_BAD_VERTS, cells)
    assert str(ref.value) == message
    with pytest.raises(MeshTopologyError, match=re.escape(message) + "$"):
        build_mesh(_BAD_VERTS, cells)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_refused(bad):
    verts = [(0.0, 0.0), (1.0, 0.0), (1.0, bad), (bad, 1.0), (0.0, 1.0)]
    with pytest.raises(MeshTopologyError,
                       match="^vertex 2 has a non-finite coordinate$"):
        build_mesh(verts, [[0, 1, 2, 4]])


def test_read_non_finite_vertex_refused(tmp_path):
    path = tmp_path / "nan.msh"
    path.write_text("MESH2D 3 1\nv 0 0\nv nan 0\nv 0 1\nc 3 0 1 2\n")
    with pytest.raises(MeshTopologyError,
                       match="^vertex 1 has a non-finite coordinate$"):
        read_mesh(path)
