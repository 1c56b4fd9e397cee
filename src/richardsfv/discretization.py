"""Finite-volume assembly of the nonlinear system F(h) = A(h) h - b(h).

Fluxes are represented scheme-independently: every active face (interior
or Dirichlet) carries a linear stencil so that its base flux at unit
permeability is sum(w_j h_j) + g. TPFA fills two-point stencils from
harmonically averaged directional conductivities; MPFA-O stencils come
from vertex interaction regions (see _mpfa). The face relative
permeability multiplying the base flux depends only on the two adjacent
cells, via the continuation wrapper.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sps

from . import _kernels, linalg
from .constitutive import ConstitutiveModel, cell_curves, _kind_code

__all__ = [
    "Medium",
    "ProblemSpec",
    "Assembly",
    "AssemblyError",
    "Discretization",
    "tpfa_transmissibilities",
]

SCHEMES = ("tpfa", "mpfa-o")
KR_MODES = ("central", "upwind")  # mode_code is the index


def _check_scheme(scheme):
    """Raise ValueError, naming the supported schemes, unless scheme is
    one of SCHEMES."""
    if scheme not in SCHEMES:
        raise ValueError(
            f"unknown scheme {scheme!r} (supported: {', '.join(SCHEMES)})")


class AssemblyError(RuntimeError):
    """Degenerate geometry or singular local system during assembly."""


@dataclass(frozen=True)
class Medium:
    """Homogeneous subdomain: conductivity tensor plus constitutive model."""

    name: str
    conductivity: np.ndarray  # 2x2 SPD, m/day
    model: ConstitutiveModel

    def __post_init__(self):
        K = np.asarray(self.conductivity, dtype=float)
        object.__setattr__(self, "conductivity", K)
        if K.shape != (2, 2):
            raise ValueError(f"medium {self.name}: conductivity must be 2x2")
        if not np.isfinite(K).all():
            raise ValueError(
                f"medium {self.name}: conductivity has a non-finite entry")
        if not np.allclose(K, K.T, rtol=0.0, atol=1e-12 * abs(K).max()):
            raise ValueError(f"medium {self.name}: conductivity not symmetric")
        if np.linalg.eigvalsh(K).min() <= 0.0:
            raise ValueError(
                f"medium {self.name}: conductivity not positive definite")


@dataclass(frozen=True)
class ProblemSpec:
    """Boundary-value problem on a mesh.

    dirichlet maps boundary tag names to a head value (m) or a callable
    h(x, z), called once per tag with the arrays of its faces' midpoint
    coordinates and returning their heads; neumann maps tags to outward
    flux density (m/day). Boundary faces whose tag is in neither map
    have zero flux. Both maps are read in one place, the boundary table
    (is_dir, bc) a Discretization builds; every setup step reads that.
    source is the specific source term (1/day), scalar or per cell.
    kr_mode selects the face permeability: "central" (half-sum) or
    "upwind" (value from the higher-head cell, ties use the half-sum).
    """

    mesh: object
    media: tuple
    cell_medium: np.ndarray
    dirichlet: dict
    neumann: dict = None
    source: object = 0.0
    kr_mode: str = "central"

    def __post_init__(self):
        object.__setattr__(self, "media", tuple(self.media))
        object.__setattr__(self, "neumann", dict(self.neumann or {}))
        object.__setattr__(self, "dirichlet", dict(self.dirichlet))
        cm = np.asarray(self.cell_medium, dtype=np.int64)
        object.__setattr__(self, "cell_medium", cm)
        self.validate()

    def validate(self):
        mesh = self.mesh
        if len(self.cell_medium) != mesh.n_cells:
            raise ValueError("cell_medium length does not match cell count")
        if self.cell_medium.min() < 0 or \
                self.cell_medium.max() >= len(self.media):
            raise ValueError("cell_medium references a missing medium")
        if self.kr_mode not in KR_MODES:
            raise ValueError(
                f"unknown kr_mode {self.kr_mode!r} "
                f"(supported: {', '.join(KR_MODES)})")
        tags = set(mesh.tag_names())
        both = set(self.dirichlet) & set(self.neumann)
        if both:
            raise ValueError(
                f"tags {sorted(both)} appear in both dirichlet and neumann")
        unknown = (set(self.dirichlet) | set(self.neumann)) - tags
        if unknown:
            raise ValueError(
                f"boundary conditions reference missing tags {sorted(unknown)}")
        if not any(t in self.dirichlet for t in tags):
            raise ValueError("problem needs at least one Dirichlet boundary")
        src = np.asarray(self.source, dtype=float)
        if src.ndim not in (0, 1) or (src.ndim == 1 and
                                      len(src) != mesh.n_cells):
            raise ValueError("source must be scalar or one value per cell")

    def source_per_cell(self):
        src = np.asarray(self.source, dtype=float)
        if src.ndim == 0:
            return np.full(self.mesh.n_cells, float(src))
        return src


@dataclass
class Assembly:
    """Picard system at a given state: A (CSR), b, and F = A h - b.

    A is laid on its Discretization's fixed pattern by the
    Discretization's Ordering (order.matrix): its indptr and indices are
    that Ordering's read-only arrays, shared by every matrix it hands
    out, so change a copy's structure, not A's.
    """

    A: sps.csr_matrix
    b: np.ndarray
    F: np.ndarray


class SparsityPattern(NamedTuple):
    """Fixed CSR structure (indptr, indices) of a Discretization's
    matrices, and the two CSR operators that fill their data, one row
    per data slot: a_op @ K is A's data, for K the face permeabilities,
    and j_op @ [dk_l flux0; dk_r flux0] on the interior faces is the
    Jacobian's kr-derivative part."""

    indptr: np.ndarray
    indices: np.ndarray
    a_op: sps.csr_matrix  # slot x face: the signed stencil weights
    j_op: sps.csr_matrix  # slot x 2 interior faces: weights +-1


def tpfa_transmissibilities(spec):
    """Per-face TPFA transmissibility (m^2/day) over all mesh faces.

    Interior faces carry the harmonic average of the one-sided
    directional conductances (n K n) |face| / d, d the distance from the
    cell centroid to the face plane; boundary faces the one-sided value.
    """
    mesh = spec.mesh
    K = np.array([m.conductivity for m in spec.media])[spec.cell_medium]
    n = mesh.face_normal
    interior = mesh.face_cells[:, 1] >= 0
    # (face, side) -> cell; boundary faces repeat their one cell
    cells = np.where(interior[:, None], mesh.face_cells,
                     mesh.face_cells[:, :1])
    to_face = mesh.face_midpoint[:, None, :] - mesh.cell_centroid[cells]
    d = np.abs(np.einsum("fsi,fi->fs", to_face, n))
    flat = d <= 1e-14 * np.maximum(mesh.face_length, 1.0)[:, None]
    flat[:, 1] &= interior
    if flat.any():
        f, side = np.argwhere(flat)[0]
        raise AssemblyError(
            f"cell {cells[f, side]}: centroid lies on the plane of face {f}")
    nKn = np.einsum("fi,fsij,fj->fs", n, K[cells], n)
    k = nKn * mesh.face_length[:, None] / d
    return np.where(interior, k[:, 0] * k[:, 1] / (k[:, 0] + k[:, 1]),
                    k[:, 0])


def _boundary_table(spec):
    """The boundary table, the one place boundary conditions are read:
    per mesh face, is_dir (a Dirichlet face) and bc, the head on a
    Dirichlet face, the outward flux density on any other boundary face
    (0 unless its tag sets one) and 0 on an interior face. A callable
    head is called once per tag, with its faces' midpoints x and z."""
    mesh = spec.mesh
    is_dir = np.zeros(mesh.n_faces, dtype=bool)
    bc = np.zeros(mesh.n_faces)
    for tag, val in spec.dirichlet.items():
        on = mesh.face_tag == tag
        is_dir[on] = True
        bc[on] = val(*mesh.face_midpoint[on].T) if callable(val) else val
    for tag, val in spec.neumann.items():
        bc[mesh.face_tag == tag] = val
    return is_dir, bc


def _tpfa_stencils(spec, is_dir, bc):
    """Two-point flux stencils of the interior and Dirichlet faces, as
    arrays (face_ids, ptr, col, w, g) like mpfa_o_stencils."""
    mesh = spec.mesh
    T = tpfa_transmissibilities(spec)
    face_ids = np.flatnonzero((mesh.face_cells[:, 1] >= 0) | is_dir)
    cl, cr = mesh.face_cells[face_ids].T
    interior = cr >= 0
    ptr = np.zeros(len(face_ids) + 1, dtype=np.intc)
    np.cumsum(1 + interior, out=ptr[1:])
    first, second = ptr[:-1], ptr[:-1][interior] + 1
    col = np.empty(ptr[-1], dtype=np.intc)
    col[first], col[second] = cl, cr[interior]
    w = np.empty(ptr[-1])
    w[first], w[second] = T[face_ids], -T[face_ids[interior]]
    dir_faces = face_ids[~interior]
    g = np.zeros(len(face_ids))
    g[~interior] = -T[dir_faces] * bc[dir_faces]
    return face_ids, ptr, col, w, g


def _by_medium(spec, cells):
    """Per medium present among cells: (model, the positions in cells of
    its cells, and their centroid z, z_min and z_max, as cell_curves
    takes them). When one medium holds all the cells, its positions are
    slice(None)."""
    mesh = spec.mesh
    groups = []
    for mi, medium in enumerate(spec.media):
        on = spec.cell_medium[cells] == mi
        if on.any():
            ids = slice(None) if on.all() else np.nonzero(on)[0]
            c = cells[ids]
            groups.append((medium.model, ids, mesh.cell_centroid[c, 1],
                           mesh.cell_zmin[c], mesh.cell_zmax[c]))
    return groups


def _curves(groups, h, need_deriv):
    """(theta, dtheta, kr, dkr) of the cells the groups cover, at heads
    h given in their order, by one cell_curves call per medium. When
    need_deriv is false theta, dtheta and dkr are None."""
    n = len(h)
    kr = np.empty(n)
    theta, dtheta, dkr = (np.empty(n), np.empty(n), np.empty(n)) \
        if need_deriv else (None, None, None)
    for model, ids, *geometry in groups:
        th, dth, kr[ids], dk = cell_curves(model, h[ids], *geometry,
                                           need_deriv)
        if need_deriv:
            theta[ids], dtheta[ids], dkr[ids] = th, dth, dk
    return theta, dtheta, kr, dkr


class Discretization:
    """Precomputed flux stencils plus assembly entry points.

    Building a Discretization validates the problem, reads its boundary
    conditions once into the boundary table (is_dir, bc, per mesh face;
    see _boundary_table) and computes the scheme stencils from it once,
    with the face topology every evaluation uses:
    the Dirichlet faces (dir_at), the right cell clamped to 0 on them
    (cell_r0), and the interior faces with their right cells (int_faces,
    int_r). On first use it also fixes the one sparsity pattern of its
    Picard matrices and Jacobians (pattern), a fill-reducing ordering of
    that pattern (order), which hands out every assembled matrix and
    which every linear solve reuses, and the flux operator (flux_op),
    the face x cell CSR matrix of the stencils (w, col, ptr). The
    per-iteration work is only constitutive evaluation, one product
    with the flux operator and, for a matrix, one product with each of
    the pattern's operators it needs (a_op for A; a_op and j_op for J).
    Only assemble_jacobian needs the kr derivatives; residual, assemble
    and face_fluxes evaluate kr alone.
    """

    def __init__(self, spec, scheme="tpfa"):
        _check_scheme(scheme)
        self.spec = spec
        self.scheme = scheme
        mesh = spec.mesh
        self.n_cells = mesh.n_cells

        self.is_dir, self.bc = _boundary_table(spec)
        if scheme == "tpfa":
            stencils = _tpfa_stencils(spec, self.is_dir, self.bc)
        else:
            from ._mpfa import mpfa_o_stencils
            stencils = mpfa_o_stencils(spec, self.is_dir, self.bc)
        self.face_ids, self.ptr, self.col, self.w, self.g = stencils
        self.cell_l = mesh.face_cells[self.face_ids, 0]
        self.cell_r = mesh.face_cells[self.face_ids, 1]
        # fixed face topology: the Dirichlet faces (cell_r < 0), the right
        # cell clamped to 0 on them, the interior faces and their right
        # cells
        self.dir_at = np.nonzero(self.cell_r < 0)[0]
        self.cell_r0 = np.maximum(self.cell_r, 0)
        self.int_faces = np.nonzero(self.cell_r >= 0)[0]
        self.int_r = self.cell_r[self.int_faces]

        # fixed source / Neumann part of b
        neu = np.flatnonzero((mesh.face_cells[:, 1] < 0) & ~self.is_dir)
        self.b_base = spec.source_per_cell() * mesh.cell_area
        np.subtract.at(self.b_base, mesh.face_cells[neu, 0],
                       self.bc[neu] * mesh.face_length[neu])

        # Dirichlet-face kr, evaluated once at the boundary head with the
        # adjacent cell's geometry (modeling choice; heads are fixed)
        self.kr_dir = np.zeros(len(self.face_ids))
        at = self.dir_at
        self.kr_dir[at] = _curves(_by_medium(spec, self.cell_l[at]),
                                  self.bc[self.face_ids[at]], False)[2]

        self.groups = _by_medium(spec, np.arange(self.n_cells))
        self.mode_code = KR_MODES.index(spec.kr_mode)

    @cached_property
    def pattern(self):
        """The one CSR sparsity pattern of A(h) and J(h), built on first
        use: every stencil entry of A and the four kr-derivative entries
        (rows and columns cl, cr) of each interior face, which for TPFA
        and MPFA-O fall inside A's. One stable sort of the entries by
        (row, column) gives both the slots and the operators' rows, each
        row listing its entries in the order they are generated here:
        A's stencil entries on the faces' first cells, then on the
        interior faces' second cells with the weights negated, then the
        derivative entries (cl, cl) +dk_l, (cl, cr) +dk_r, (cr, cl)
        -dk_l and (cr, cr) -dk_r, each times flux0."""
        n = self.n_cells
        entry_face = np.repeat(np.arange(len(self.face_ids)),
                               np.diff(self.ptr))
        # A's entry n_e + i repeats stencil entry second[i], negated, on
        # its interior face's second cell
        second = np.flatnonzero(self.cell_r[entry_face] >= 0)
        cl, cr = self.cell_l[self.int_faces], self.int_r
        keys = np.concatenate([
            self.cell_l[entry_face] * n + self.col,
            self.cell_r[entry_face[second]] * n + self.col[second],
            cl * n + cl, cl * n + cr, cr * n + cl, cr * n + cr])
        at = np.argsort(keys, kind="stable")
        keys = keys[at]
        # bounds[s]:bounds[s + 1] are slot s's entries in sorted order
        new = np.ones(len(keys) + 1, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=new[1:-1])
        bounds = np.flatnonzero(new)
        rows, cols = np.divmod(keys[bounds[:-1]], n)
        del keys, new
        indptr = np.zeros(n + 1, dtype=np.intc)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        indices = cols.astype(np.intc)
        del rows, cols

        n_e, n_j = len(entry_face), 2 * len(cl)
        n_a = n_e + len(second)
        of_a = at < n_a
        a_ptr = np.zeros(len(at) + 1, dtype=np.intc)
        np.cumsum(of_a, out=a_ptr[1:])
        a_ptr = a_ptr[bounds]
        a_at, j_at = at[of_a], at[~of_a] - n_a
        del at, of_a
        slots = len(bounds) - 1
        neg = j_at >= n_j  # the (cr, cl) and (cr, cr) entries
        j_op = sps.csr_matrix(
            (np.where(neg, -1.0, 1.0), (j_at - n_j * neg).astype(np.intc),
             (bounds - a_ptr).astype(np.intc)), shape=(slots, n_j))
        neg = a_at >= n_e  # the entries on second cells
        a_at = np.concatenate([np.arange(n_e), second])[a_at]
        a_w = self.w[a_at]
        a_w *= np.where(neg, -1.0, 1.0)
        a_op = sps.csr_matrix((a_w, entry_face.astype(np.intc)[a_at], a_ptr),
                              shape=(slots, len(self.face_ids)))
        return SparsityPattern(indptr, indices, a_op, j_op)

    @cached_property
    def flux_op(self):
        """The face x cell CSR matrix of the stencils (w, col, ptr),
        built on first use, which shares the three arrays: the base
        fluxes are flux_op @ h + g."""
        return sps.csr_matrix((self.w, self.col, self.ptr),
                              shape=(len(self.face_ids), self.n_cells))

    @cached_property
    def order(self):
        """The fill-reducing Ordering of the pattern, built on first use
        (the first assembly) and passed to every linear solve of this
        discretization. Every A and J is order.matrix(...) and shares
        its index arrays, so a solve recognises the pattern without
        comparing it."""
        return linalg.Ordering(self.pattern.indptr, self.pattern.indices)

    # -- per-state evaluations ------------------------------------------

    def cell_state(self, h, need_deriv=True):
        """Vectorized (theta, dtheta, kr, dkr) over all cells. When
        need_deriv is false only kr is evaluated, and theta, dtheta and
        dkr are None."""
        return _curves(self.groups, h, need_deriv)

    def _face_system(self, h, q, kind, need_deriv):
        _, _, kr, dkr = self.cell_state(h, need_deriv)
        return _kernels.face_system(
            h, kr, dkr, self.kr_dir, self.flux_op, self.g, self.cell_l,
            self.cell_r0, self.dir_at, float(q), _kind_code(kind),
            self.mode_code, need_deriv)

    def _scatter(self, values):
        """Signed per-cell sums of face values: + on each face's first
        cell, - on the second cell of each interior face."""
        n = self.n_cells
        return np.bincount(self.cell_l, values, minlength=n) - \
            np.bincount(self.int_r, values[self.int_faces], minlength=n)

    def _residual(self, flux0, K):
        """F = A h - b from the face base fluxes and permeabilities."""
        return self._scatter(K * flux0) - self.b_base

    def residual(self, h, q, kind):
        """F(h) assembled directly (used by line-search trials)."""
        flux0, K, _, _ = self._face_system(h, q, kind, False)
        return self._residual(flux0, K)

    def assemble(self, h, q, kind):
        """Picard matrix A(h), right-hand side b(h), and F = A h - b."""
        flux0, K, _, _ = self._face_system(h, q, kind, False)
        A = self.order.matrix(self.pattern.a_op @ K)
        b = self.b_base - self._scatter(K * self.g)
        return Assembly(A=A, b=b, F=self._residual(flux0, K))

    def assemble_jacobian(self, h, q, kind, with_residual=False):
        """Exact Jacobian of F at h: A plus the permeability-derivative
        entries of interior faces, on the same pattern as A."""
        flux0, K, dk_l, dk_r = self._face_system(h, q, kind, True)
        pat = self.pattern
        fl = flux0[self.int_faces]
        data = pat.a_op @ K
        data += pat.j_op @ np.concatenate([dk_l[self.int_faces] * fl,
                                           dk_r[self.int_faces] * fl])
        J = self.order.matrix(data)
        if with_residual:
            return J, self._residual(flux0, K)
        return J

    def face_fluxes(self, h, q, kind):
        """Reconstructed flux through every mesh face, oriented along the
        stored face normal. Neumann faces carry their prescribed flux."""
        mesh = self.spec.mesh
        flux0, K, _, _ = self._face_system(h, q, kind, False)
        out = self.bc * mesh.face_length
        out[self.face_ids] = K * flux0
        return out

    def flux_imbalance(self, h, q, kind):
        """Per-cell signed imbalance: sum of the outward face fluxes minus
        Q area, accumulated via the mesh cell-face adjacency (independent
        of residual scatter)."""
        mesh = self.spec.mesh
        flux = self.face_fluxes(h, q, kind)
        rhs = self.spec.source_per_cell() * mesh.cell_area
        return np.add.reduceat(flux[mesh.cf_face] * mesh.cf_sign,
                               mesh.cell_ptr[:-1]) - rhs
