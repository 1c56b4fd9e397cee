"""Finite-volume assembly of the nonlinear system F(h) = A(h) h - b(h).

Fluxes are represented scheme-independently: every active face (interior
or Dirichlet) carries a linear stencil so that its base flux at unit
permeability is sum(w_j h_j) + g. TPFA fills two-point stencils from
harmonically averaged directional conductivities; MPFA-O stencils come
from vertex interaction regions (see _mpfa). The face relative
permeability multiplying the base flux depends only on the two adjacent
cells, via the continuation wrapper.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from . import _kernels
from .constitutive import ConstitutiveModel, cell_curves, _kind_code

__all__ = [
    "Medium",
    "ProblemSpec",
    "Assembly",
    "AssemblyError",
    "Discretization",
    "face_kr",
    "tpfa_transmissibilities",
    "assemble",
    "assemble_jacobian",
]

logger = logging.getLogger(__name__)

SCHEMES = ("tpfa", "mpfa-o")


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
        if not np.allclose(K, K.T, rtol=0.0, atol=1e-12 * abs(K).max()):
            raise ValueError(f"medium {self.name}: conductivity not symmetric")
        if np.linalg.eigvalsh(K).min() <= 0.0:
            raise ValueError(
                f"medium {self.name}: conductivity not positive definite")


@dataclass(frozen=True)
class ProblemSpec:
    """Boundary-value problem on a mesh.

    dirichlet maps boundary tag names to a head value (m) or a callable
    h(x, z) evaluated at face midpoints; neumann maps tags to outward
    flux density (m/day). Untagged boundaries default to zero-flux.
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
        if self.kr_mode not in ("central", "upwind"):
            raise ValueError(f"unknown kr_mode {self.kr_mode!r}")
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

    def dirichlet_value(self, tag, x, z):
        val = self.dirichlet[tag]
        return float(val(x, z)) if callable(val) else float(val)


@dataclass
class Assembly:
    """Picard system at a given state: A (CSR), b, and F = A h - b."""

    A: sps.csr_matrix
    b: np.ndarray
    F: np.ndarray


def face_kr(h_l, h_r, kr_l, kr_r, mode="central"):
    """Face relative permeability from the two adjacent cells.

    "central" returns the half-sum; "upwind" the value from the cell
    with greater head, falling back to the half-sum at exact ties.
    """
    if mode == "central":
        return 0.5 * (np.asarray(kr_l) + np.asarray(kr_r))
    if mode != "upwind":
        raise ValueError(f"unknown kr mode {mode!r}")
    h_l, h_r = np.asarray(h_l), np.asarray(h_r)
    return np.where(h_l > h_r, kr_l,
                    np.where(h_l < h_r, kr_r,
                             0.5 * (np.asarray(kr_l) + np.asarray(kr_r))))


def _directional_conductance(mesh, K, f, c):
    """One-sided conductance (n K n) |face| / d of cell c at face f."""
    n = mesh.face_normal[f]
    d = abs(np.dot(mesh.face_midpoint[f] - mesh.cell_centroid[c], n))
    if d <= 1e-14 * max(mesh.face_length[f], 1.0):
        raise AssemblyError(
            f"cell {c}: centroid lies on the plane of face {f}")
    return float(n @ K @ n) * mesh.face_length[f] / d


def tpfa_transmissibilities(spec):
    """Per-face TPFA transmissibility (m^2/day) over all mesh faces.

    Interior faces carry the harmonic average of the one-sided
    directional conductances; boundary faces the one-sided value.
    """
    mesh = spec.mesh
    Ks = [m.conductivity for m in spec.media]
    T = np.empty(mesh.n_faces)
    for f in range(mesh.n_faces):
        cl, cr = mesh.face_cells[f]
        kl = _directional_conductance(mesh, Ks[spec.cell_medium[cl]], f, cl)
        if cr >= 0:
            kr = _directional_conductance(
                mesh, Ks[spec.cell_medium[cr]], f, cr)
            T[f] = kl * kr / (kl + kr)
        else:
            T[f] = kl
    return T


def _boundary_kinds(spec):
    """Classify boundary faces: returns (dirichlet_faces with values,
    neumann_faces with flux densities)."""
    mesh = spec.mesh
    dir_faces, dir_vals, neu_faces, neu_vals = [], [], [], []
    for f in mesh.boundary_faces:
        tag = mesh.face_tag[f]
        x, z = mesh.face_midpoint[f]
        if tag in spec.dirichlet:
            dir_faces.append(f)
            dir_vals.append(spec.dirichlet_value(tag, x, z))
        else:
            neu_faces.append(f)
            neu_vals.append(float(spec.neumann.get(tag, 0.0)))
    return (np.array(dir_faces, dtype=np.int64), np.array(dir_vals),
            np.array(neu_faces, dtype=np.int64), np.array(neu_vals))


def _tpfa_stencils(spec, dir_faces, dir_vals):
    """Two-point flux stencils for interior and Dirichlet faces."""
    mesh = spec.mesh
    T = tpfa_transmissibilities(spec)
    dir_val = dict(zip(dir_faces.tolist(), dir_vals))
    face_ids, cols, ws, gs = [], [], [], []
    for f in range(mesh.n_faces):
        cl, cr = mesh.face_cells[f]
        if cr >= 0:
            face_ids.append(f)
            cols.append([cl, cr])
            ws.append([T[f], -T[f]])
            gs.append(0.0)
        elif f in dir_val:
            face_ids.append(f)
            cols.append([cl])
            ws.append([T[f]])
            gs.append(-T[f] * dir_val[f])
    return face_ids, cols, ws, gs


class Discretization:
    """Precomputed flux stencils plus assembly entry points.

    Building a Discretization validates the problem and computes the
    scheme stencils once; the per-iteration work is only constitutive
    evaluation and sparse-value fills over fixed patterns.
    """

    def __init__(self, spec, scheme="tpfa"):
        if scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {scheme!r} (supported: {', '.join(SCHEMES)})")
        self.spec = spec
        self.scheme = scheme
        mesh = spec.mesh
        self.n_cells = mesh.n_cells

        dir_faces, dir_vals, neu_faces, neu_vals = _boundary_kinds(spec)
        if scheme == "tpfa":
            face_ids, cols, ws, gs = _tpfa_stencils(spec, dir_faces, dir_vals)
        else:
            from ._mpfa import mpfa_o_stencils
            face_ids, cols, ws, gs = mpfa_o_stencils(
                spec, dir_faces, dir_vals, neu_faces, neu_vals)

        self.face_ids = np.asarray(face_ids, dtype=np.int64)
        self.cell_l = mesh.face_cells[self.face_ids, 0].copy()
        self.cell_r = mesh.face_cells[self.face_ids, 1].copy()
        lens = np.array([len(c) for c in cols], dtype=np.int64)
        self.ptr = np.zeros(len(cols) + 1, dtype=np.int64)
        self.ptr[1:] = np.cumsum(lens)
        self.col = np.concatenate(cols).astype(np.int64) if len(cols) \
            else np.zeros(0, dtype=np.int64)
        self.w = np.concatenate(ws).astype(float) if len(ws) \
            else np.zeros(0)
        self.g = np.asarray(gs, dtype=float)

        # fixed source / Neumann part of b
        self.b_base = spec.source_per_cell() * mesh.cell_area
        for f, qn in zip(neu_faces, neu_vals):
            self.b_base[mesh.face_cells[f, 0]] -= qn * mesh.face_length[f]
        self.neu_faces = neu_faces
        self.neu_vals = neu_vals

        # Dirichlet-face kr, evaluated once at the boundary head with the
        # adjacent cell's geometry (modeling choice; heads are fixed)
        self.kr_dir = np.zeros(len(self.face_ids))
        dval = dict(zip(dir_faces.tolist(), dir_vals))
        for i, f in enumerate(self.face_ids):
            if self.cell_r[i] < 0:
                c = self.cell_l[i]
                medium = spec.media[spec.cell_medium[c]]
                _, _, kr, _ = cell_curves(
                    medium.model,
                    np.array([dval[int(f)]]),
                    mesh.cell_centroid[c, 1:2],
                    mesh.cell_zmin[c:c + 1], mesh.cell_zmax[c:c + 1])
                self.kr_dir[i] = kr[0]

        self._build_patterns()
        self._group_media()
        self.mode_code = {"central": 0, "upwind": 1}[spec.kr_mode]

    def _build_patterns(self):
        m = len(self.face_ids)
        entry_face = np.repeat(np.arange(m, dtype=np.int64),
                               np.diff(self.ptr))
        rows_l = self.cell_l[entry_face]
        interior_entry = self.cell_r[entry_face] >= 0
        rows_r = self.cell_r[entry_face][interior_entry]
        self.a_rows = np.concatenate([rows_l, rows_r])
        self.a_cols = np.concatenate([self.col, self.col[interior_entry]])
        self.a_face = np.concatenate([entry_face, entry_face[interior_entry]])
        self.a_sign = np.concatenate([np.ones(len(rows_l)),
                                      -np.ones(len(rows_r))])
        self.a_w = np.concatenate([self.w, self.w[interior_entry]])

        self.int_faces = np.nonzero(self.cell_r >= 0)[0]
        cl = self.cell_l[self.int_faces]
        cr = self.cell_r[self.int_faces]
        self.j_rows = np.concatenate([cl, cl, cr, cr])
        self.j_cols = np.concatenate([cl, cr, cl, cr])

    def _group_media(self):
        mesh = self.spec.mesh
        self.groups = []
        for mi, medium in enumerate(self.spec.media):
            ids = np.nonzero(self.spec.cell_medium == mi)[0]
            if len(ids):
                self.groups.append((medium.model, ids))
        self.z_c = mesh.cell_centroid[:, 1].copy()
        self.z_min = mesh.cell_zmin
        self.z_max = mesh.cell_zmax

    # -- per-state evaluations ------------------------------------------

    def cell_state(self, h):
        """Vectorized (theta, dtheta, kr, dkr) over all cells."""
        n = self.n_cells
        theta = np.empty(n)
        dtheta = np.empty(n)
        kr = np.empty(n)
        dkr = np.empty(n)
        for model, ids in self.groups:
            th, dth, k, dk = cell_curves(
                model, h[ids], self.z_c[ids],
                self.z_min[ids], self.z_max[ids])
            theta[ids], dtheta[ids], kr[ids], dkr[ids] = th, dth, k, dk
        return theta, dtheta, kr, dkr

    def _face_system(self, h, q, kind, need_deriv):
        _, _, kr, dkr = self.cell_state(h)
        return _kernels.face_system(
            h, kr, dkr, self.kr_dir, self.cell_l, self.cell_r,
            self.ptr, self.col, self.w, self.g,
            float(q), _kind_code(kind), self.mode_code, need_deriv)

    def residual(self, h, q, kind):
        """F(h) assembled directly (used by line-search trials)."""
        flux0, K, _, _ = self._face_system(h, q, kind, False)
        return _kernels.scatter_faces(
            K * flux0, self.cell_l, self.cell_r, self.n_cells) - self.b_base

    def assemble(self, h, q, kind):
        """Picard matrix A(h), right-hand side b(h), and F = A h - b."""
        flux0, K, _, _ = self._face_system(h, q, kind, False)
        a_vals = self.a_sign * K[self.a_face] * self.a_w
        A = sps.coo_matrix(
            (a_vals, (self.a_rows, self.a_cols)),
            shape=(self.n_cells, self.n_cells)).tocsr()
        A.sum_duplicates()
        A.sort_indices()
        b = self.b_base - _kernels.scatter_faces(
            K * self.g, self.cell_l, self.cell_r, self.n_cells)
        F = _kernels.scatter_faces(
            K * flux0, self.cell_l, self.cell_r, self.n_cells) - self.b_base
        return Assembly(A=A, b=b, F=F)

    def assemble_jacobian(self, h, q, kind, with_residual=False):
        """Exact Jacobian of F at h (same fill pattern as A plus the
        permeability-derivative entries of interior faces)."""
        flux0, K, dk_l, dk_r = self._face_system(h, q, kind, True)
        a_vals = self.a_sign * K[self.a_face] * self.a_w
        if q == 0.0:
            # K is constant, so J is A; build it identically (bitwise)
            rows, cols, vals = self.a_rows, self.a_cols, a_vals
        else:
            fi = self.int_faces
            fl = flux0[fi]
            j_vals = np.concatenate([dk_l[fi] * fl, dk_r[fi] * fl,
                                     -dk_l[fi] * fl, -dk_r[fi] * fl])
            rows = np.concatenate([self.a_rows, self.j_rows])
            cols = np.concatenate([self.a_cols, self.j_cols])
            vals = np.concatenate([a_vals, j_vals])
        J = sps.coo_matrix(
            (vals, (rows, cols)),
            shape=(self.n_cells, self.n_cells)).tocsr()
        J.sum_duplicates()
        J.sort_indices()
        if with_residual:
            F = _kernels.scatter_faces(
                K * flux0, self.cell_l, self.cell_r, self.n_cells) \
                - self.b_base
            return J, F
        return J

    def face_fluxes(self, h, q, kind):
        """Reconstructed flux through every mesh face, oriented along the
        stored face normal. Neumann faces carry their prescribed flux."""
        mesh = self.spec.mesh
        flux0, K, _, _ = self._face_system(h, q, kind, False)
        out = np.zeros(mesh.n_faces)
        out[self.face_ids] = K * flux0
        for f, qn in zip(self.neu_faces, self.neu_vals):
            out[f] = qn * mesh.face_length[f]
        return out

    def flux_imbalance(self, h, q, kind):
        """Per-cell |sum of signed face fluxes - Q area|, accumulated via
        the mesh cell-face adjacency (independent of residual scatter)."""
        mesh = self.spec.mesh
        flux = self.face_fluxes(h, q, kind)
        rhs = self.spec.source_per_cell() * mesh.cell_area
        return np.add.reduceat(flux[mesh.cf_face] * mesh.cf_sign,
                               mesh.cf_ptr[:-1]) - rhs


def assemble(spec, h, q, kind, scheme="tpfa"):
    """One-shot assembly; prefer a reused Discretization in loops."""
    return Discretization(spec, scheme).assemble(h, q, kind)


def assemble_jacobian(spec, h, q, kind, scheme="tpfa"):
    """One-shot Jacobian assembly at h."""
    return Discretization(spec, scheme).assemble_jacobian(h, q, kind)
