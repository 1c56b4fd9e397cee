"""Mesh generation, invariants, and file round-trips."""

from dataclasses import replace

import numpy as np
import pytest

from richardsfv.mesh import (MeshFormatError, MeshTopologyError,
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


def test_read_count_mismatch(tmp_path):
    path = tmp_path / "short.msh"
    path.write_text("MESH2D 4 1\nv 0 0\nv 1 0\nv 0 1\nc 3 0 1 2\n")
    with pytest.raises(MeshFormatError, match="vertices"):
        read_mesh(path)


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


def test_untagged_boundary_gets_default():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    m = build_mesh(verts, [[0, 1, 2, 3]])
    assert m.tag_names() == ["boundary"]


def test_degenerate_cells_rejected():
    verts = [(0, 0), (1, 0), (2, 0), (0, 1)]
    with pytest.raises(MeshTopologyError):
        build_mesh(verts, [[0, 1, 2]])  # collinear, zero area
    with pytest.raises(MeshTopologyError):
        build_mesh(verts, [[0, 1, 1]])  # repeated vertex
    with pytest.raises(MeshTopologyError):
        build_mesh([(0, 0), (1, 0), (1, 1)], [])  # no cells


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
