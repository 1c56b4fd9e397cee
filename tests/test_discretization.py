"""Assembly: TPFA/MPFA-O stencils, residual/Jacobian consistency,
matrix structure, scheme exactness properties."""

import logging
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sps

from richardsfv import _kernels, _mpfa
from richardsfv.benchmarks import (build_dam, build_layered_slab,
                                   build_verification_linear,
                                   dam_conductivity)
from richardsfv.constitutive import UnconfinedParams, VgmParams
from richardsfv.discretization import (AssemblyError, Discretization, Medium,
                                       ProblemSpec, _boundary_table,
                                       tpfa_transmissibilities)
from richardsfv.linalg import solve
from richardsfv.mesh import build_mesh, gen_cartesian, gen_triangular
from test_mesh import generator_input, mixed_input, renumbered

VGM = VgmParams(0.05, 0.4, 1.0, 1.5)
UNC = UnconfinedParams()


def two_cell_spec(kl=1.0, kr=1.0):
    """Two unit squares side by side, Dirichlet on the left."""
    mesh = gen_cartesian(2, 1, 2.0, 1.0)
    media = (Medium("L", kl * np.eye(2), VGM),
             Medium("R", kr * np.eye(2), VGM))
    cm = np.zeros(2, dtype=np.int64)
    cm[np.argmax(mesh.cell_centroid[:, 0])] = 1
    return ProblemSpec(mesh=mesh, media=media, cell_medium=cm,
                       dirichlet={"left": 1.0})


# -- boundary table ---------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: build_verification_linear("triangular:12x12")[0],
    lambda: replace(build_dam("vgm", "cartesian:7x5"),
                    neumann={"top": 0.3, "right_dry": -0.2}),
], ids=["verify-tri12", "dam-cart7x5-neumann"])
def test_boundary_table_reads_each_tag_once(build):
    # per-face reference: a head or flux density per boundary face, the
    # callable head called at each face's midpoint
    spec = build()
    mesh = spec.mesh
    ref_dir = np.zeros(mesh.n_faces, dtype=bool)
    ref_bc = np.zeros(mesh.n_faces)
    for f in mesh.boundary_faces:
        tag = mesh.face_tag[f]
        if tag in spec.dirichlet:
            val = spec.dirichlet[tag]
            ref_dir[f] = True
            ref_bc[f] = val(*mesh.face_midpoint[f]) if callable(val) else val
        else:
            ref_bc[f] = spec.neumann.get(tag, 0.0)
    calls = []

    def counted(val):
        def head(x, z):
            calls.append((x, z))
            return val(x, z)
        return head if callable(val) else val

    is_dir, bc = _boundary_table(replace(spec, dirichlet={
        tag: counted(val) for tag, val in spec.dirichlet.items()}))
    assert np.array_equal(is_dir, ref_dir)
    assert bc.tobytes() == ref_bc.tobytes()
    # a callable head is called once per tag, on its faces' midpoints
    heads = [tag for tag, val in spec.dirichlet.items() if callable(val)]
    assert len(calls) == len(heads)
    for tag, (x, z) in zip(heads, calls):
        on = mesh.face_tag == tag
        assert np.array_equal(x, mesh.face_midpoint[on, 0])
        assert np.array_equal(z, mesh.face_midpoint[on, 1])


# -- TPFA transmissibilities ------------------------------------------

def test_tpfa_unit_interior_face():
    spec = two_cell_spec(1.0, 1.0)
    T = tpfa_transmissibilities(spec)
    (f,) = spec.mesh.interior_faces
    # two unit cells, K = I: one-sided conductances are 2 and 2
    assert T[f] == pytest.approx(1.0, rel=1e-14)
    assert (T > 0).all()


def test_tpfa_harmonic_average():
    spec = two_cell_spec(1.0, 3.0)
    T = tpfa_transmissibilities(spec)
    (f,) = spec.mesh.interior_faces
    # k_L = 2, k_R = 6 -> harmonic 2*6/(2+6) = 1.5
    assert T[f] == pytest.approx(1.5, rel=1e-14)


def test_tpfa_homogeneity_in_k():
    s = 7.3
    T1 = tpfa_transmissibilities(two_cell_spec(1.0, 3.0))
    T2 = tpfa_transmissibilities(two_cell_spec(s, 3.0 * s))
    np.testing.assert_allclose(T2, s * T1, rtol=1e-13)


def test_tpfa_degenerate_distance_names_cell():
    # arrowhead polygon whose centroid lies on a face plane
    verts = [(0, 0), (4, 0), (1, 1), (0, 4)]
    mesh = build_mesh(verts, [[0, 1, 2, 3]])
    spec = ProblemSpec(mesh=mesh, media=(Medium("m", np.eye(2), VGM),),
                       cell_medium=[0], dirichlet={"boundary": 1.0})
    with pytest.raises(AssemblyError, match="cell 0"):
        tpfa_transmissibilities(spec)


def _loop_directional_conductance(mesh, K, f, c):
    n = mesh.face_normal[f]
    d = abs(np.dot(mesh.face_midpoint[f] - mesh.cell_centroid[c], n))
    if d <= 1e-14 * max(mesh.face_length[f], 1.0):
        raise AssemblyError(
            f"cell {c}: centroid lies on the plane of face {f}")
    return float(n @ K @ n) * mesh.face_length[f] / d


def _loop_tpfa(spec):
    """Reference: per-face transmissibilities and two-point stencils
    (face ids, column lists, weight lists, constants)."""
    mesh = spec.mesh
    Ks = [m.conductivity for m in spec.media]
    T = np.empty(mesh.n_faces)
    for f in range(mesh.n_faces):
        cl, cr = mesh.face_cells[f]
        kl = _loop_directional_conductance(
            mesh, Ks[spec.cell_medium[cl]], f, cl)
        if cr >= 0:
            kr = _loop_directional_conductance(
                mesh, Ks[spec.cell_medium[cr]], f, cr)
            T[f] = kl * kr / (kl + kr)
        else:
            T[f] = kl
    face_ids, cols, ws, gs = [], [], [], []
    for f in range(mesh.n_faces):
        cl, cr = mesh.face_cells[f]
        tag = mesh.face_tag[f]
        if cr >= 0:
            face_ids.append(f)
            cols.append([cl, cr])
            ws.append([T[f], -T[f]])
            gs.append(0.0)
        elif tag in spec.dirichlet:
            x, z = mesh.face_midpoint[f]
            face_ids.append(f)
            cols.append([cl])
            ws.append([T[f]])
            val = spec.dirichlet[tag]
            gs.append(-T[f] * float(val(x, z) if callable(val) else val))
    return T, face_ids, cols, ws, gs


@pytest.mark.parametrize("build", [
    lambda: build_dam("vgm", "1900"),
    lambda: build_dam("unconfined", "cartesian:7x5", kr_mode="upwind"),
    lambda: build_layered_slab("400"),
    lambda: build_layered_slab("triangular:12x12"),
], ids=["dam-tri31", "dam-cart7x5", "slab-400", "slab-tri12"])
def test_tpfa_matches_per_face_loop(build):
    # summation order differs from the loop's BLAS n @ K @ n: a few ulp
    spec = build()
    T_ref, face_ids, cols, ws, gs = _loop_tpfa(spec)
    np.testing.assert_allclose(tpfa_transmissibilities(spec), T_ref,
                               rtol=1e-14, atol=0)
    disc = Discretization(spec, "tpfa")
    assert np.array_equal(disc.face_ids, face_ids)
    assert np.array_equal(disc.ptr, np.cumsum([0] + [len(c) for c in cols]))
    assert np.array_equal(disc.col, np.concatenate(cols))
    np.testing.assert_allclose(disc.w, np.concatenate(ws), rtol=1e-14,
                               atol=0)
    np.testing.assert_allclose(disc.g, gs, rtol=1e-14, atol=0)


# -- MPFA-O stencils ----------------------------------------------------

def _loop_corners_by_vertex(mesh):
    n = len(mesh.cell_vert)
    cell = np.repeat(np.arange(mesh.n_cells), np.diff(mesh.cell_ptr))
    prev = np.arange(-1, n - 1)
    prev[mesh.cell_ptr[:-1]] = mesh.cell_ptr[1:] - 1
    order = np.lexsort((cell, mesh.cell_vert))
    vptr = np.zeros(mesh.n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(mesh.cell_vert, minlength=mesh.n_vertices),
              out=vptr[1:])
    return (vptr.tolist(), cell[order].tolist(),
            mesh.cf_face[prev][order].tolist(), mesh.cf_face[order].tolist())


def _loop_mpfa_o_stencils(spec, is_dir, bc):
    """Reference: one interaction region per vertex, one local solve
    each, terms summed per (face, cell) in accumulation order."""
    mesh = spec.mesh
    Ks = [m.conductivity for m in spec.media]
    active = (mesh.face_cells[:, 1] >= 0) | is_dir
    face_ids = np.nonzero(active)[0]
    is_dir, active, bc = is_dir.tolist(), active.tolist(), bc.tolist()
    owner = mesh.face_cells[:, 0].tolist()
    vptr, corner_cell, corner_f1, corner_f2 = _loop_corners_by_vertex(mesh)
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
                expr[(f, c)] = ((f1, f2), lam, -lam.sum())
        if nu:
            M = np.zeros((nu, nu))
            N = np.zeros((nu, nc))
            r = np.zeros(nu)
            for f in unknown:
                i = uidx[f]
                cl, cr = mesh.face_cells[f]
                sides = [cl] if cr < 0 else [cl, cr]
                if cr < 0:
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
                raise AssemblyError(f"vertex {v}: singular "
                                    "interaction-region system") from None
        else:
            X = np.zeros((0, nc))
            y = np.zeros(0)
        for f in faces_v:
            if not active[f]:
                continue
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
    key = np.asarray(t_face, dtype=np.int64) * mesh.n_cells + t_cell
    terms, inv = np.unique(key, return_inverse=True)
    ptr = np.zeros(len(face_ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(terms // mesh.n_cells,
                          minlength=mesh.n_faces)[face_ids], out=ptr[1:])
    w = np.bincount(inv, weights=t_w, minlength=len(terms))
    g = np.bincount(np.asarray(g_face, dtype=np.int64), weights=g_val,
                    minlength=mesh.n_faces)[face_ids]
    return face_ids, ptr, terms % mesh.n_cells, w, g


def _renumbered_tri16():
    return build_mesh(*renumbered(
        generator_input(gen_triangular, 16, 16, 10.0, 10.0), seed=3))


@pytest.mark.parametrize("build", [
    lambda: build_dam("vgm", "1900"),
    lambda: build_dam("vgm", _renumbered_tri16()),
    lambda: build_dam("vgm", "400"),
    lambda: replace(build_layered_slab("triangular:12x12"),
                    neumann={"top": 0.3, "bottom": -0.2}),
], ids=["dam-tri31", "dam-tri16-renumbered", "dam-cart20",
        "slab-tri12-neumann"])
def test_mpfa_matches_per_vertex_loop(build):
    # the batched solves and the (face, cell) sums round differently from
    # the loop; entries that cancel to roundoff (g about 1e-16 where heads
    # are 10 m) are held to 1e-14 of the largest entry instead
    spec = build()
    bt = _boundary_table(spec)
    face_ids, ptr, col, w, g = _loop_mpfa_o_stencils(spec, *bt)
    got = _mpfa.mpfa_o_stencils(spec, *bt)
    assert np.array_equal(got[0], face_ids)
    assert np.array_equal(got[1], ptr)
    assert np.array_equal(got[2], col)
    for new, ref in ((got[3], w), (got[4], g)):
        np.testing.assert_allclose(new, ref, rtol=1e-12,
                                   atol=1e-14 * abs(ref).max())


def _isotropic_spec(mesh, dirichlet, n_media=1):
    """Media K = I, 3 I, ... assigned to the cells by index, cyclically."""
    media = tuple(Medium(f"m{i}", (1.0 + 2.0 * i) * np.eye(2), VGM)
                  for i in range(n_media))
    return ProblemSpec(mesh=mesh, media=media,
                       cell_medium=np.arange(mesh.n_cells) % n_media,
                       dirichlet=dirichlet)


def test_mpfa_singular_region_names_vertex():
    # arrowhead whose centroid is its vertex (1, 1): at (0, 0) the two
    # edge midpoints lie on one line through the centroid
    mesh = build_mesh([(0, 0), (4, 0), (1, 1), (0, 4)], [[0, 1, 2, 3]])
    spec = _isotropic_spec(mesh, {"boundary": 1.0})
    with pytest.raises(AssemblyError) as err:
        Discretization(spec, "mpfa-o")
    assert str(err.value) == "vertex 0: singular interaction region in cell 0"


@pytest.mark.parametrize("swap", [False, True], ids=["a-first", "b-first"])
def test_mpfa_two_degenerate_corners_name_lowest_vertex(swap):
    # arrowhead a and its point reflection b through the midpoint of the
    # shared edge; a is degenerate at (0, 0), b at (4, 0)
    pts = [(1, 1), (4, 0), (0, 4), (3, -1), (0, 0), (4, -4)]
    cells = [[4, 1, 0, 2], [1, 4, 3, 5]]
    if swap:  # exchange the ids of (0, 0) and (4, 0)
        pts[1], pts[4] = pts[4], pts[1]
        cells = [[{1: 4, 4: 1}.get(i, i) for i in c] for c in cells]
    spec = _isotropic_spec(build_mesh(pts, cells), {"boundary": 1.0})
    want = ("vertex 1: singular interaction region in cell "
            f"{0 if swap else 1}")
    with pytest.raises(AssemblyError) as err:
        Discretization(spec, "mpfa-o")
    assert str(err.value) == want
    with pytest.raises(AssemblyError) as err:
        _loop_mpfa_o_stencils(spec, *_boundary_table(spec))
    assert str(err.value) == want


@pytest.mark.parametrize("n_media, vertex", [(1, 23), (2, 26)])
def test_mpfa_ill_conditioned_system_names_vertex(n_media, vertex):
    # on the mixed mesh the 9-gon (cell 19) meets a pentagon along two
    # faces at vertex 23 (cell 14) and at vertex 26 (cell 17); with one K
    # in both cells such a two-face region is singular, and its system
    # has a condition number near 1e16 whatever its pivots round to. With
    # K alternating by cell parity only 17 and 19 share a medium
    spec = _isotropic_spec(build_mesh(*mixed_input()), {"left": 1.0},
                           n_media)
    with pytest.raises(AssemblyError) as err:
        Discretization(spec, "mpfa-o")
    assert str(err.value) == (f"vertex {vertex}: singular "
                              "interaction-region system")


def _einsum_half_face_fluxes(spec, cell, faces):
    """Oracle: _mpfa._half_face_fluxes with lam as one 3-operand einsum."""
    mesh = spec.mesh
    G = mesh.face_midpoint[faces] - mesh.cell_centroid[cell][:, None]
    det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0]
    flat = np.abs(det) <= 1e-14 * np.maximum(mesh.cell_area[cell], 1e-30)
    adj = np.stack([G[:, 1, 1], -G[:, 0, 1], -G[:, 1, 0], G[:, 0, 0]], -1)
    Ginv = adj.reshape(-1, 2, 2) / np.where(flat, 1.0, det)[:, None, None]
    K = np.array([m.conductivity for m in spec.media])[spec.cell_medium[cell]]
    sign = np.where(mesh.face_cells[faces, 0] == cell[:, None], 1.0, -1.0)
    lam = np.einsum("ksi,kij,kjt->kst", sign[..., None] *
                    mesh.face_normal[faces], K, Ginv)
    lam *= (-0.5 * mesh.face_length[faces])[..., None]
    return lam, -lam.sum(axis=-1), flat


def _renumbered_tri31(seed):
    return build_mesh(*renumbered(
        generator_input(gen_triangular, 31, 31, 10.0, 10.0), seed=seed))


@pytest.mark.parametrize("build", [
    lambda: build_dam("vgm", _renumbered_tri31(0)),
    lambda: build_dam("vgm", _renumbered_tri31(3)),
    lambda: build_dam("vgm", "cartesian:20x20"),
    lambda: build_layered_slab("triangular:12x12"),
    # diagonal K on rectangles: lam has zeros whose sign the einsum sets
    lambda: build_layered_slab("cartesian:20x20"),
], ids=["dam-tri31-seed0", "dam-tri31-seed3", "dam-cart20", "slab-tri12",
        "slab-cart20"])
def test_half_face_fluxes_match_einsum_bitwise(build):
    spec = build()
    _, cell, faces = _mpfa._corners_by_vertex(spec.mesh)
    got = _mpfa._half_face_fluxes(spec, cell, faces)
    want = _einsum_half_face_fluxes(spec, cell, faces)
    for name, a, b in zip(("lam", "cc", "flat"), got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _svd_stack(U, V, s):
    """Systems U diag(s) V^T, one per row of s."""
    return (U * s[:, None, :]) @ np.swapaxes(V, -1, -2)


def _columns_first_last(rng, first, last):
    """An orthonormal basis whose first and last columns are along the
    orthogonal vectors first and last."""
    n = len(first)
    rest = rng.standard_normal((n, n - 2))
    Q = np.linalg.qr(np.column_stack([first, last, rest]))[0]
    return Q[:, [0, *range(2, n), 1]]


@pytest.mark.parametrize("n", range(1, 9))
def test_mpfa_guard_never_looser_than_cond2(n):
    # Every system the guard accepts has cond_2 <= COND_MAX, on random
    # systems and on near-singular ones with cond_2 = c between 1e9 and
    # 1e15: random singular vectors with singular values spread over
    # 1/c .. 1, and (n > 2) singular vectors for which cond_1 falls to
    # about cond_2 sqrt(2 / (n (n - 1))), so that a guard on cond_1
    # alone would accept some systems with cond_2 above COND_MAX
    rng = np.random.default_rng(100 + n)
    count = 3000
    c = 10.0 ** rng.uniform(9.0, 15.0, count)
    s = np.sort(c[:, None] ** -rng.random((count, n)))[:, ::-1]
    s[:, 0], s[:, -1] = 1.0, 1.0 / c
    U, V = (np.linalg.qr(rng.standard_normal((count, n, n)))[0]
            for _ in "UV")
    stacks = [rng.standard_normal((count, n, n)), _svd_stack(U, V, s)]
    if n > 2:
        e, ones = np.eye(n), np.ones(n)
        s[:, 1:-1] = 1e-3
        stacks.append(_svd_stack(
            _columns_first_last(rng, e[0], ones - e[0]),
            _columns_first_last(rng, ones, e[0] - e[1]), s))
    for M in stacks:
        accepted = ~_mpfa._refused(M)
        assert (np.linalg.cond(M[accepted]) <= _mpfa.COND_MAX).all()
        if M is not stacks[0] and n > 1:  # both sides of COND_MAX
            assert 0 < accepted.sum() < count


@pytest.mark.parametrize("n", range(1, 9))
def test_mpfa_guard_refuses_exactly_singular(n):
    # singular systems in small integers: a zero matrix, a zero row, and
    # a last row that is the sum of the first two (twice the first when
    # n = 2, zero when n = 1); the identity placed among them is
    # accepted, so the refusal is per system of the stack
    rng = np.random.default_rng(n)
    ints = rng.integers(-5, 6, (3, n, n)).astype(float)
    ints[0] = 0.0
    ints[1, -1] = 0.0
    if n > 1:
        ints[2, -1] = ints[2, 0] + ints[2, 1 % (n - 1)]
    else:
        ints[2] = 0.0
    M = np.concatenate([ints[:1], np.eye(n)[None], ints[1:]])
    assert _mpfa._refused(M).tolist() == [True, False, True, True]


# -- face permeability ---------------------------------------------------

# Four faces over cells with heads 5, 3, 4, 4, kr 0.2, 0.4, 0.6, 0.8 and
# dkr/dh 0.5: cell 0 -> 1, cell 1 -> 0 (the higher head on the right),
# the tie 2 -> 3, and a Dirichlet face of cell 1 with boundary kr 0.9.
FACE_L = np.array([0, 1, 2, 1])
FACE_R = np.array([1, 0, 3, -1])


def four_faces(mode_code, need_deriv=True):
    """(K, dK/dh_l, dK/dh_r) of the four faces from face_system at q = 1
    under the power wrapper, where K is the face kr itself."""
    n = len(FACE_L)
    flux_op = sps.csr_matrix((np.ones(n), FACE_L, np.arange(n + 1)),
                             shape=(n, 4))
    return _kernels.face_system(
        np.array([5.0, 3.0, 4.0, 4.0]), np.array([0.2, 0.4, 0.6, 0.8]),
        np.full(4, 0.5), np.array([0.0, 0.0, 0.0, 0.9]), flux_op,
        np.zeros(n), FACE_L, np.maximum(FACE_R, 0),
        np.nonzero(FACE_R < 0)[0], 1.0, 1, mode_code, need_deriv)[1:]


def test_face_kr_central():
    K, dk_l, dk_r = four_faces(0)
    assert K[:3] == pytest.approx([0.3, 0.3, 0.7])
    assert (dk_l[:3] == 0.25).all() and (dk_r[:3] == 0.25).all()


def test_face_kr_upwind():
    K, dk_l, dk_r = four_faces(1)
    assert K[:2] == pytest.approx([0.2, 0.2])  # cell 0 both times
    assert list(dk_l[:2]) == [0.5, 0.0] and list(dk_r[:2]) == [0.0, 0.5]


def test_face_kr_upwind_tie_is_central():
    K, dk_l, dk_r = four_faces(1)
    assert K[2] == pytest.approx(0.7)
    assert dk_l[2] == dk_r[2] == 0.25


@pytest.mark.parametrize("mode_code", [0, 1])
def test_face_kr_dirichlet_face(mode_code):
    K, dk_l, dk_r = four_faces(mode_code)
    assert K[3] == 0.9
    assert dk_l[3] == dk_r[3] == 0.0
    K_alone, dk_l, dk_r = four_faces(mode_code, need_deriv=False)
    assert np.array_equal(K_alone, K)
    assert dk_l is None and dk_r is None


def test_face_kr_bad_mode():
    with pytest.raises(ValueError) as exc:
        replace(two_cell_spec(), kr_mode="midpoint")
    assert str(exc.value) == \
        "unknown kr_mode 'midpoint' (supported: central, upwind)"


def test_unconf_clamp_logged_once_per_state(caplog):
    spec = build_dam("unconfined", "cartesian:4x4")
    disc = Discretization(spec, "tpfa")
    h = np.full(disc.n_cells, 6.0)
    h[:3] = -1e9  # three cells below the theta floor
    for need_deriv in (True, False):
        caplog.clear()
        with caplog.at_level(logging.WARNING,
                             logger="richardsfv.constitutive"):
            disc.cell_state(h, need_deriv)
        assert [r.getMessage() for r in caplog.records] == \
            ["unconfined theta floor active in 3 cells"]


# -- assembly consistency ------------------------------------------------

@pytest.mark.parametrize("scheme", ["tpfa", "mpfa-o"])
def test_q0_assembly_is_state_independent(scheme):
    spec = build_dam("vgm", "cartesian:4x4")
    disc = Discretization(spec, scheme)
    rng = np.random.default_rng(0)
    A1 = disc.assemble(rng.uniform(2, 10, 16), 0.0, "linear").A
    A2 = disc.assemble(rng.uniform(2, 10, 16), 0.0, "power").A
    assert (A1 != A2).nnz == 0  # bit-identical


@pytest.mark.parametrize("scheme", ["tpfa", "mpfa-o"])
@pytest.mark.parametrize("q,kind", [(0.0, "linear"), (0.7, "power"),
                                    (1.0, "linear")])
def test_residual_equals_Ah_minus_b(scheme, q, kind):
    spec = build_dam("unconfined", "cartesian:5x4")
    disc = Discretization(spec, scheme)
    rng = np.random.default_rng(1)
    h = rng.uniform(2, 10, spec.mesh.n_cells)
    asm = disc.assemble(h, q, kind)
    F_from_A = asm.A @ h - asm.b
    scale = max(np.abs(asm.F).max(), np.abs(asm.b).max(), 1e-30)
    assert np.abs(asm.F - F_from_A).max() <= 1e-13 * scale
    np.testing.assert_allclose(disc.residual(h, q, kind), asm.F,
                               rtol=0, atol=1e-13 * scale)


def test_exact_discrete_solution_has_zero_residual():
    spec = build_dam("unconfined", "400")
    disc = Discretization(spec, "tpfa")
    asm = disc.assemble(np.full(400, 6.0), 0.0, "linear")
    h_star, _ = solve(asm.A, asm.b)
    F = disc.residual(h_star, 0.0, "linear")
    assert np.abs(F).max() <= 1e-10 * np.abs(asm.b).max()


def test_two_cell_no_flow_equilibrium():
    # Dirichlet h = 1 on the left, impermeable elsewhere, Q = 0:
    # the constant state solves the problem
    spec = two_cell_spec()
    disc = Discretization(spec, "tpfa")
    asm = disc.assemble(np.full(2, 0.5), 1.0, "linear")
    h, _ = solve(asm.A, asm.b)
    np.testing.assert_allclose(h, 1.0, atol=1e-12)


def test_neumann_inflow_balance():
    # prescribed inflow on the right must exit through the left
    # Dirichlet boundary at steady state
    mesh = gen_cartesian(3, 1, 3.0, 1.0)
    spec = ProblemSpec(mesh=mesh, media=(Medium("m", np.eye(2), VGM),),
                       cell_medium=np.zeros(3, dtype=int),
                       dirichlet={"left": 5.0}, neumann={"right": -0.25})
    disc = Discretization(spec, "tpfa")
    asm = disc.assemble(np.full(3, 5.0), 0.0, "linear")
    h, _ = solve(asm.A, asm.b)
    flux = disc.face_fluxes(h, 0.0, "linear")
    left = [f for f in mesh.boundary_faces if mesh.face_tag[f] == "left"]
    # outflux through the left face equals the prescribed influx 0.25
    assert flux[left[0]] == pytest.approx(-(-0.25) * 1.0, rel=1e-12)


@pytest.mark.parametrize("scheme", ["tpfa", "mpfa-o"])
def test_flux_imbalance_matches_per_cell_loop(scheme):
    spec = replace(build_dam("vgm", "triangular:5x4"), source=0.01)
    disc = Discretization(spec, scheme)
    h = np.random.default_rng(3).uniform(2.0, 10.0, disc.n_cells)
    mesh = spec.mesh
    flux = disc.face_fluxes(h, 0.7, "power")
    rhs = spec.source_per_cell() * mesh.cell_area
    expect = np.empty(disc.n_cells)
    bound = np.empty(disc.n_cells)
    for c in range(disc.n_cells):
        fids, sgns = mesh.faces_of_cell(c)
        expect[c] = float((flux[fids] * sgns).sum() - rhs[c])
        # the same terms summed in another order: a few roundings each
        bound[c] = 2 * len(fids) * np.finfo(float).eps * \
            (np.abs(flux[fids]).sum() + abs(rhs[c]))
    imb = disc.flux_imbalance(h, 0.7, "power")
    assert (np.abs(imb - expect) <= bound).all()


@pytest.mark.parametrize("scheme", ["tpfa", "mpfa-o"])
def test_per_cell_source_matches_scalar_source(scheme):
    spec = replace(build_dam("vgm", "triangular:5x4"), source=0.01)
    n = spec.mesh.n_cells
    h = np.random.default_rng(3).uniform(2.0, 10.0, n)
    F = Discretization(spec, scheme).residual(h, 0.7, "power")
    same = Discretization(replace(spec, source=np.full(n, 0.01)), scheme)
    assert same.residual(h, 0.7, "power").tobytes() == F.tobytes()
    # a varying per-cell source: the imbalance, summed over each cell's
    # faces, is the residual up to summation order
    src = np.random.default_rng(4).uniform(-0.05, 0.05, n)
    disc = Discretization(replace(spec, source=src), scheme)
    F = disc.residual(h, 0.7, "power")
    scale = np.abs(disc.face_fluxes(h, 0.7, "power")).max()
    np.testing.assert_allclose(disc.flux_imbalance(h, 0.7, "power"), F,
                               rtol=0, atol=1e-13 * scale)
    assert not np.allclose(F, same.residual(h, 0.7, "power"))


# -- Jacobian ------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["tpfa", "mpfa-o"])
def test_jacobian_equals_A_at_q0(scheme):
    spec = build_dam("vgm", "cartesian:4x4")
    disc = Discretization(spec, scheme)
    h = np.linspace(2, 10, 16)
    asm = disc.assemble(h, 0.0, "linear")
    J = disc.assemble_jacobian(h, 0.0, "linear")
    assert abs(J - asm.A).max() == 0.0


def _coo_assembly(disc, h, q, kind, take=lambda v: v):
    """A and J built the way assembly once did, from every entry listed
    in COO form and summed by scipy; take maps the entry values (abs
    gives the per-slot sums of |terms| that bound the rounding)."""
    n = disc.n_cells
    entry_face = np.repeat(np.arange(len(disc.face_ids)), np.diff(disc.ptr))
    interior_entry = disc.cell_r[entry_face] >= 0
    rows = np.concatenate([disc.cell_l[entry_face],
                           disc.cell_r[entry_face][interior_entry]])
    cols = np.concatenate([disc.col, disc.col[interior_entry]])
    face = np.concatenate([entry_face, entry_face[interior_entry]])
    sign = np.concatenate([np.ones(len(entry_face)),
                           -np.ones(interior_entry.sum())])
    w = np.concatenate([disc.w, disc.w[interior_entry]])
    flux0, K, dk_l, dk_r = disc._face_system(h, q, kind, True)
    a_vals = sign * K[face] * w

    def csr(r, c, v):
        M = sps.coo_matrix((take(v), (r, c)), shape=(n, n)).tocsr()
        M.sum_duplicates()
        M.sort_indices()
        return M

    A = csr(rows, cols, a_vals)
    if q == 0.0:
        return A, A
    fi = np.nonzero(disc.cell_r >= 0)[0]
    cl, cr, fl = disc.cell_l[fi], disc.cell_r[fi], flux0[fi]
    J = csr(np.concatenate([rows, cl, cl, cr, cr]),
            np.concatenate([cols, cl, cr, cl, cr]),
            np.concatenate([a_vals, dk_l[fi] * fl, dk_r[fi] * fl,
                            -dk_l[fi] * fl, -dk_r[fi] * fl]))
    return A, J


@pytest.mark.parametrize("scheme", ["tpfa", "mpfa-o"])
@pytest.mark.parametrize("grid", ["tri16-renumbered", "cart20"])
@pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kind", ["linear", "power"])
def test_fixed_pattern_assembly_matches_coo_build(scheme, grid, q, kind):
    mesh = _renumbered_tri16() if grid == "tri16-renumbered" else "400"
    disc = Discretization(build_dam("vgm", mesh), scheme)
    h = np.random.default_rng(11).uniform(1.0, 11.0, disc.n_cells)
    got = (disc.assemble(h, q, kind).A, disc.assemble_jacobian(h, q, kind))
    ref = _coo_assembly(disc, h, q, kind)
    bound = _coo_assembly(disc, h, q, kind, take=np.abs)
    for g, r, b in zip(got, ref, bound):
        assert np.array_equal(g.indptr, r.indptr)
        assert np.array_equal(g.indices, r.indices)
        # summed in another order: a few roundings of the |terms| each
        assert (np.abs(g.data - r.data) <= 1e-14 * b.data).all()
    if q > 0.0:
        assert not np.array_equal(got[0].data, got[1].data)


@pytest.mark.parametrize("scheme", ["tpfa", "mpfa-o"])
@pytest.mark.parametrize("model", ["vgm", "unconfined"])
@pytest.mark.parametrize("kind, q", [("linear", 1.0), ("power", 0.6)])
@pytest.mark.parametrize("kr_mode", ["central", "upwind"])
def test_kr_alone_evaluations_equal_full_state(scheme, model, kind, q,
                                               kr_mode, monkeypatch):
    # residual, assemble and face_fluxes evaluate kr alone; built from
    # the full cell_state instead they must be bitwise the same
    disc = Discretization(build_dam(model, "triangular:6x6", kr_mode),
                          scheme)
    h = np.random.default_rng(5).uniform(-1.0, 11.0, disc.n_cells)

    def evaluate():
        asm = disc.assemble(h, q, kind)
        return (disc.residual(h, q, kind), asm.A.data, asm.b, asm.F,
                disc.face_fluxes(h, q, kind))

    got = evaluate()
    full_state = Discretization.cell_state
    monkeypatch.setattr(disc, "cell_state",
                        lambda h, need_deriv=True: full_state(disc, h))
    ref = evaluate()
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)
    _, _, kr, _ = disc.cell_state(h)
    assert 0.0 < kr.min() < 0.5 and kr.max() == 1.0  # both branches


def fd_jacobian(disc, h, q, kind, step_scale=1e-6):
    n = len(h)
    cols = []
    for j in range(n):
        step = step_scale * (1.0 + abs(h[j]))
        hp = h.copy()
        hp[j] += step
        hm = h.copy()
        hm[j] -= step
        cols.append((disc.residual(hp, q, kind) -
                     disc.residual(hm, q, kind)) / (2.0 * step))
    return np.column_stack(cols)


@pytest.mark.parametrize("scheme", ["tpfa", "mpfa-o"])
@pytest.mark.parametrize("model", ["vgm", "unconfined"])
@pytest.mark.parametrize("kind", ["linear", "power"])
def test_jacobian_matches_finite_differences(scheme, model, kind):
    spec = build_dam(model, "cartesian:4x4")
    disc = Discretization(spec, scheme)
    rng = np.random.default_rng(42)
    h = rng.uniform(1.0, 11.0, 16)
    J = disc.assemble_jacobian(h, 1.0 if kind == "linear" else 0.6,
                               kind).toarray()
    Jfd = fd_jacobian(disc, h, 1.0 if kind == "linear" else 0.6, kind)
    scale = max(np.abs(Jfd).max(), 1e-30)
    assert np.abs(J - Jfd).max() <= 1e-5 * scale


def test_jacobian_upwind_mode():
    spec = build_dam("vgm", "cartesian:4x4", kr_mode="upwind")
    disc = Discretization(spec, "tpfa")
    rng = np.random.default_rng(3)
    h = rng.uniform(1.0, 11.0, 16)  # no ties, almost surely
    J = disc.assemble_jacobian(h, 1.0, "linear").toarray()
    Jfd = fd_jacobian(disc, h, 1.0, "linear")
    assert np.abs(J - Jfd).max() <= 1e-5 * np.abs(Jfd).max()
    # away from ties only the upwind cell carries the kr derivative
    flux0, K, dk_l, dk_r = disc._face_system(h, 1.0, "linear", True)
    hl = h[disc.cell_l]
    interior = disc.cell_r >= 0
    hr = np.where(interior, h[np.where(interior, disc.cell_r, 0)], 0.0)
    up_l = interior & (hl > hr)
    up_r = interior & (hl < hr)
    assert (dk_r[up_l] == 0).all()
    assert (dk_l[up_r] == 0).all()


# -- matrix structure -----------------------------------------------------

def test_tpfa_central_A_symmetric():
    spec = build_dam("unconfined", "cartesian:6x6")
    disc = Discretization(spec, "tpfa")
    h = np.random.default_rng(5).uniform(2, 10, 36)
    A = disc.assemble(h, 1.0, "linear").A
    assert abs(A - A.T).max() <= 1e-14 * abs(A).max()


def test_tpfa_q0_is_m_matrix():
    spec = build_dam("unconfined", "cartesian:6x6")
    disc = Discretization(spec, "tpfa")
    A = disc.assemble(np.full(36, 6.0), 0.0, "linear").A.toarray()
    off = A - np.diag(np.diag(A))
    assert (off <= 1e-14).all()  # nonpositive off-diagonals
    rowsum = A.sum(axis=1)
    assert (rowsum >= -1e-12).all()  # weak diagonal dominance
    # strict dominance in Dirichlet-adjacent rows
    mesh = spec.mesh
    dir_cells = {mesh.face_cells[f, 0]
                 for f in mesh.boundary_faces
                 if mesh.face_tag[f] in spec.dirichlet}
    assert all(rowsum[c] > 1e-10 for c in dir_cells)


def flip_face(mesh, f):
    """Reverse the stored orientation of face f."""
    fc = mesh.face_cells.copy()
    fn = mesh.face_normal.copy()
    sg = mesh.cf_sign.copy()
    fc[f] = fc[f][::-1]
    fn[f] = -fn[f]
    sg[mesh.cf_face == f] *= -1
    return replace(mesh, face_cells=fc, face_normal=fn, cf_sign=sg)


@pytest.mark.parametrize("scheme", ["tpfa", "mpfa-o"])
def test_orientation_flip_leaves_residual_unchanged(scheme):
    spec = build_dam("unconfined", "cartesian:4x3")
    f = int(spec.mesh.interior_faces[3])
    mesh2 = flip_face(spec.mesh, f)
    spec2 = replace(spec, mesh=mesh2)
    rng = np.random.default_rng(8)
    h = rng.uniform(2, 10, spec.mesh.n_cells)
    F1 = Discretization(spec, scheme).residual(h, 1.0, "power")
    F2 = Discretization(spec2, scheme).residual(h, 1.0, "power")
    np.testing.assert_allclose(F1, F2, rtol=0,
                               atol=1e-13 * np.abs(F1).max())
    # and the reconstructed flux through the flipped face changes sign
    x1 = Discretization(spec, scheme).face_fluxes(h, 1.0, "power")
    x2 = Discretization(spec2, scheme).face_fluxes(h, 1.0, "power")
    assert x2[f] == pytest.approx(-x1[f], rel=1e-12)


# -- exactness properties -------------------------------------------------

@pytest.mark.parametrize("scheme", ["tpfa", "mpfa-o"])
@pytest.mark.parametrize("gen", [gen_cartesian, gen_triangular])
def test_constant_field_exactness(scheme, gen):
    mesh = gen(4, 4, 2.0, 2.0)
    spec, _ = build_verification_linear(mesh, dam_conductivity(),
                                        a=0.0, b=0.0, c=7.0)
    disc = Discretization(spec, scheme)
    asm = disc.assemble(np.full(mesh.n_cells, 7.0), 1.0, "linear")
    h, _ = solve(asm.A, asm.b)
    np.testing.assert_allclose(h, 7.0, atol=1e-12)


def test_mpfa_reduces_to_tpfa_on_k_orthogonal_grid():
    mesh = gen_cartesian(5, 4, 2.0, 1.0)
    med = Medium("m", np.diag([2.0, 0.5]), VGM)
    spec = ProblemSpec(mesh=mesh, media=(med,),
                       cell_medium=np.zeros(20, dtype=int),
                       dirichlet={"left": 3.0, "right": 1.0})
    h = np.linspace(1, 2, 20)
    a1 = Discretization(spec, "tpfa").assemble(h, 1.0, "power")
    a2 = Discretization(spec, "mpfa-o").assemble(h, 1.0, "power")
    assert abs(a1.A - a2.A).max() <= 1e-12 * abs(a1.A).max()
    np.testing.assert_allclose(a1.b, a2.b, rtol=0,
                               atol=1e-12 * np.abs(a1.b).max())


@pytest.mark.parametrize("gen", [gen_cartesian, gen_triangular])
def test_mpfa_linear_exactness_rotated_tensor(gen):
    mesh = gen(6, 6, 10.0, 10.0)
    spec, exact = build_verification_linear(mesh, dam_conductivity(),
                                            a=1.0, b=2.0, c=50.0)
    disc = Discretization(spec, "mpfa-o")
    asm = disc.assemble(np.full(mesh.n_cells, 50.0), 1.0, "linear")
    h, _ = solve(asm.A, asm.b)
    h_exact = exact(mesh.cell_centroid[:, 0], mesh.cell_centroid[:, 1])
    assert np.abs(h - h_exact).max() <= 1e-10


def test_tpfa_linear_exactness_k_orthogonal():
    mesh = gen_cartesian(6, 5, 3.0, 2.0)
    spec, exact = build_verification_linear(mesh, np.diag([2.0, 0.7]),
                                            a=1.0, b=2.0, c=50.0)
    disc = Discretization(spec, "tpfa")
    asm = disc.assemble(np.full(mesh.n_cells, 50.0), 1.0, "linear")
    h, _ = solve(asm.A, asm.b)
    h_exact = exact(mesh.cell_centroid[:, 0], mesh.cell_centroid[:, 1])
    assert np.abs(h - h_exact).max() <= 1e-10


def test_tpfa_inconsistent_on_rotated_tensor_triangular_grid():
    # the motivating failure: TPFA does not approximate the flux on
    # non-K-orthogonal meshes
    mesh = gen_triangular(10, 10, 10.0, 10.0)
    spec, exact = build_verification_linear(mesh, dam_conductivity(),
                                            a=1.0, b=2.0, c=50.0)
    disc = Discretization(spec, "tpfa")
    asm = disc.assemble(np.full(mesh.n_cells, 50.0), 1.0, "linear")
    h, _ = solve(asm.A, asm.b)
    h_exact = exact(mesh.cell_centroid[:, 0], mesh.cell_centroid[:, 1])
    assert np.abs(h - h_exact).max() > 1e-3


def test_tpfa_flux_error_on_rotated_cartesian_grid():
    # on a uniform Cartesian grid the TPFA cell values are
    # superconvergent for linear fields (the missing cross-term flux is
    # constant), but the face fluxes are wrong by that cross term
    mesh = gen_cartesian(10, 10, 10.0, 10.0)
    K = dam_conductivity()
    spec, exact = build_verification_linear(mesh, K, a=1.0, b=2.0, c=50.0)
    grad = np.array([1.0, 2.0])
    for scheme, bound, comparison in (("mpfa-o", 1e-10, "below"),
                                      ("tpfa", 1e-3, "above")):
        disc = Discretization(spec, scheme)
        asm = disc.assemble(np.full(100, 50.0), 1.0, "linear")
        h, _ = solve(asm.A, asm.b)
        flux = disc.face_fluxes(h, 1.0, "linear")
        ids = disc.face_ids
        true_flux = np.array(
            [-(mesh.face_normal[f] @ K @ grad) * mesh.face_length[f]
             for f in ids])
        err = np.abs(flux[ids] - true_flux).max()
        assert (err < bound) if comparison == "below" else (err > bound)


# -- validation -----------------------------------------------------------

def test_problemspec_validation_errors():
    mesh = gen_cartesian(2, 2, 1.0, 1.0)
    med = Medium("m", np.eye(2), VGM)
    ok = dict(mesh=mesh, media=(med,),
              cell_medium=np.zeros(4, dtype=int))
    with pytest.raises(ValueError, match="Dirichlet"):
        ProblemSpec(**ok, dirichlet={})
    with pytest.raises(ValueError, match="missing tags"):
        ProblemSpec(**ok, dirichlet={"west": 1.0})
    with pytest.raises(ValueError, match="both"):
        ProblemSpec(**ok, dirichlet={"left": 1.0}, neumann={"left": 0.0})
    with pytest.raises(ValueError, match="medium"):
        ProblemSpec(mesh=mesh, media=(med,),
                    cell_medium=np.array([0, 0, 0, 5]),
                    dirichlet={"left": 1.0})
    with pytest.raises(ValueError, match="source"):
        ProblemSpec(**ok, dirichlet={"left": 1.0}, source=np.ones(3))
    with pytest.raises(ValueError, match="^cell_medium length does not "
                                         "match cell count$"):
        ProblemSpec(mesh=mesh, media=(med,), cell_medium=np.zeros(3),
                    dirichlet={"left": 1.0})


def test_medium_validation():
    with pytest.raises(ValueError, match="symmetric"):
        Medium("m", np.array([[1.0, 0.5], [0.0, 1.0]]), VGM)
    with pytest.raises(ValueError, match="positive definite"):
        Medium("m", np.array([[1.0, 2.0], [2.0, 1.0]]), VGM)
    with pytest.raises(ValueError, match="2x2"):
        Medium("m", np.eye(3), VGM)
    # refused before the symmetry check, which warns on inf (an error
    # under Tier-1's filterwarnings) and calls NaN "not symmetric"
    for value in (np.inf, np.nan):
        with pytest.raises(ValueError, match=re.escape(
                "medium m: conductivity has a non-finite entry") + "$"):
            Medium("m", np.array([[value, 0.0], [0.0, 1.0]]), VGM)


def test_unknown_scheme_rejected():
    spec = two_cell_spec()
    with pytest.raises(ValueError, match="ntpfa"):
        Discretization(spec, "ntpfa")


def test_mpfa_single_cell_boundary_only():
    # no interior vertices: the stencils come purely from boundary
    # handling, and the uniform Dirichlet state is an exact solution
    mesh = gen_cartesian(1, 1, 1.0, 1.0)
    spec = ProblemSpec(mesh=mesh, media=(Medium("m", np.eye(2), VGM),),
                       cell_medium=[0], dirichlet={"left": 2.0, "right": 2.0})
    disc = Discretization(spec, "mpfa-o")
    F = disc.residual(np.array([2.0]), 1.0, "linear")
    assert abs(F[0]) < 1e-12
