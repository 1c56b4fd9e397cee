"""The face kernels, the residual scatter and the VGM curves against
their former implementations, kept here as oracles.

The oracles rebuild every per-face mask from cell_r on each call, sum
each base-flux stencil with np.add.reduceat, evaluate the curves of
every medium on gathered cells, and run the Mualem formula on every
unsaturated entry. The package precomputes the face topology, takes
the base fluxes as one CSR matrix product, skips the gather when one
medium holds every cell and evaluates the Mualem formula only where it
is needed. On TPFA every result is bitwise the oracle's; on MPFA-O the
matrix product sums a stencil in another order, so the last digits may
differ.

The matrices' data were once scattered into the pattern's slots by one
bincount per per-entry map (the face, signed weight and slot of each
entry of A, the slot of each kr-derivative entry of J). That scatter is
kept here as the oracle of the pattern's two operators, whose rows sum
the same terms in the same order, so A and J are bitwise the same on
either scheme.
"""

from dataclasses import replace

import numpy as np
import pytest

from richardsfv import _kernels
from richardsfv.benchmarks import build_dam, build_layered_slab
from richardsfv.constitutive import VgmParams, _kind_code, cell_curves
from richardsfv.continuation import ContinuationConfig, run_continuation
from richardsfv.discretization import Discretization, Medium
from richardsfv.solvers import SolverConfig

_SE_SAT = 1.0 - 1e-15


def _oracle_vgm_curves(psi, theta_r, theta_s, alpha, n, need_deriv=True):
    psi = np.asarray(psi, dtype=float)
    m = 1.0 - 1.0 / n

    wet = psi >= 0.0
    p = -psi[~wet]
    with np.errstate(over="ignore"):
        u = np.power(alpha * p, n)
        se = np.power(1.0 + u, -m)
    sat = se >= _SE_SAT
    se_w = np.where(sat, 0.5, se)  # placeholder values, overwritten below
    dry = se_w <= 0.0
    se_w = np.where(dry, 0.5, se_w)

    sqrt_se = np.sqrt(se_w)
    t = np.power(se_w, 1.0 / m)
    la = np.log1p(-t)
    g = -np.expm1(m * la)
    kr = np.ones_like(psi)
    kr[~wet] = np.where(sat, 1.0, np.where(dry, 0.0, sqrt_se * g * g))
    if not need_deriv:
        return None, None, kr, None

    with np.errstate(over="ignore", invalid="ignore"):
        dse = m * n * alpha * (u / (alpha * p)) * (se / (1.0 + u))
        dse = np.where(np.isfinite(dse), dse, 0.0)
    dkr_dse = 0.5 / sqrt_se * g * g \
        + 2.0 * sqrt_se * g * ((1.0 - g) / (1.0 - t)) * (t / se_w)

    theta = np.full_like(psi, theta_s)
    dtheta = np.zeros_like(psi)
    dkr = np.zeros_like(psi)
    dtw = theta_s - theta_r
    theta[~wet] = np.where(sat, theta_s, theta_r + dtw * se)
    dtheta[~wet] = np.where(sat | dry, 0.0, dtw * dse)
    dkr[~wet] = np.where(sat | dry, 0.0, dkr_dse * dse)
    return theta, dtheta, kr, dkr


def _oracle_face_system(h, kr, dkr, kr_dir, cell_l, cell_r, ptr, col, w, g,
                        q, kind_code, mode_code, need_deriv):
    hw = w * h[col]
    flux0 = np.add.reduceat(hw, ptr[:-1]) if len(hw) else np.zeros(0)
    flux0 = flux0 + g

    bdry = cell_r < 0
    safe_r = np.where(bdry, 0, cell_r)
    kr_l = kr[cell_l]
    kr_r = kr[safe_r]
    if mode_code == 0:
        kf = 0.5 * (kr_l + kr_r)
        wl = wr = 0.5
    else:
        h_l = h[cell_l]
        h_r = h[safe_r]
        wl = np.where(h_l > h_r, 1.0, np.where(h_l < h_r, 0.0, 0.5))
        wr = 1.0 - wl
        kf = wl * kr_l + wr * kr_r
    kf = np.where(bdry, kr_dir, kf)

    K, dKdkf = _kernels.continuation_apply(kf, q, kind_code, need_deriv)
    if not need_deriv:
        return flux0, K, None, None
    dk_l = np.where(bdry, 0.0, dKdkf * wl * dkr[cell_l])
    dk_r = np.where(bdry, 0.0, dKdkf * wr * dkr[safe_r])
    return flux0, K, dk_l, dk_r


def _oracle_scatter_faces(values, cell_l, cell_r, n_cells):
    out = np.bincount(cell_l, weights=values, minlength=n_cells)
    interior = cell_r >= 0
    if interior.any():
        out -= np.bincount(cell_r[interior], weights=values[interior],
                           minlength=n_cells)
    return out


def _oracle_curves(spec, cells, h, need_deriv):
    """(theta, dtheta, kr, dkr) of cells at heads h, one gather per
    medium, VGM through the oracle."""
    mesh = spec.mesh
    n = len(h)
    kr = np.empty(n)
    theta, dtheta, dkr = (np.empty(n), np.empty(n), np.empty(n)) \
        if need_deriv else (None, None, None)
    for mi, medium in enumerate(spec.media):
        ids = np.nonzero(spec.cell_medium[cells] == mi)[0]
        if not len(ids):
            continue
        c = cells[ids]
        model = medium.model
        if isinstance(model, VgmParams):
            th, dth, kr[ids], dk = _oracle_vgm_curves(
                h[ids] - mesh.cell_centroid[c, 1], model.theta_r,
                model.theta_s, model.alpha, model.n, need_deriv)
        else:
            th, dth, kr[ids], dk = cell_curves(
                model, h[ids], None, mesh.cell_zmin[c], mesh.cell_zmax[c],
                need_deriv)
        if need_deriv:
            theta[ids], dtheta[ids], dkr[ids] = th, dth, dk
    return theta, dtheta, kr, dkr


class OracleDiscretization(Discretization):
    """A Discretization whose per-state evaluations are the oracles'."""

    def __init__(self, spec, scheme):
        super().__init__(spec, scheme)
        at = np.nonzero(self.cell_r < 0)[0]
        h_dir = self.bc[self.face_ids[at]]
        self.kr_dir = np.zeros(len(self.face_ids))
        self.kr_dir[at] = _oracle_curves(spec, self.cell_l[at], h_dir,
                                         False)[2]

    def cell_state(self, h, need_deriv=True):
        return _oracle_curves(self.spec, np.arange(self.n_cells), h,
                              need_deriv)

    def _face_system(self, h, q, kind, need_deriv):
        _, _, kr, dkr = self.cell_state(h, need_deriv)
        return _oracle_face_system(
            h, kr, dkr, self.kr_dir, self.cell_l, self.cell_r,
            self.ptr, self.col, self.w, self.g,
            float(q), _kind_code(kind), self.mode_code, need_deriv)

    def _scatter(self, values):
        return _oracle_scatter_faces(values, self.cell_l, self.cell_r,
                                     self.n_cells)


def _two_vgm_media(mesh):
    """dam-vgm with its cells split between two VGM media."""
    spec = build_dam("vgm", mesh)
    medium = spec.media[0]
    finer = Medium("finer", medium.conductivity / 3.0,
                   replace(medium.model, n=2.0))
    left = spec.mesh.cell_centroid[:, 0] < 4.0
    return replace(spec, media=(medium, finer),
                   cell_medium=np.where(left, 1, 0))


PROBLEMS = {
    "dam-vgm": lambda mode: build_dam("vgm", "triangular:8x8", mode),
    "dam-unconfined": lambda mode: build_dam("unconfined", "triangular:8x8",
                                             mode),
    "layered-slab": lambda mode: build_layered_slab("cartesian:7x9", mode),
    "two-vgm-media": lambda mode: replace(
        _two_vgm_media("triangular:8x8"), kr_mode=mode),
}


def _states(disc):
    """Heads from well below to above the dam's top, some cells dry
    under the unconfined floor."""
    rng = np.random.default_rng(disc.n_cells)
    wide = rng.uniform(-2.0, 12.0, disc.n_cells)
    return [wide, np.linspace(1.0, 10.0, disc.n_cells)]


def _agree(new, old, scheme):
    if scheme == "tpfa":
        assert np.array_equal(np.asarray(new).view(np.int64),
                              np.asarray(old).view(np.int64))
    else:
        scale = np.abs(old).max()
        assert np.abs(new - old).max() <= 1e-13 * scale


def _oracle_pattern(disc):
    """The pattern as np.unique over every entry's (row, column) key,
    with the per-entry maps: A's entry e adds sign_w[e] * K[a_face[e]]
    into slot a_slot[e], and the kr-derivative entries (cl, cl) dk_l,
    (cl, cr) dk_r, (cr, cl) -dk_l and (cr, cr) -dk_r of the interior
    faces, each times flux0, add into their slots j_slot."""
    n = disc.n_cells
    entry_face = np.repeat(np.arange(len(disc.face_ids)), np.diff(disc.ptr))
    interior_entry = disc.cell_r[entry_face] >= 0
    a_face = np.concatenate([entry_face, entry_face[interior_entry]])
    a_rows = np.concatenate([disc.cell_l[entry_face],
                             disc.cell_r[entry_face[interior_entry]]])
    a_cols = np.concatenate([disc.col, disc.col[interior_entry]])
    sign_w = np.concatenate([disc.w, -disc.w[interior_entry]])
    cl = disc.cell_l[disc.int_faces]
    cr = disc.cell_r[disc.int_faces]
    keys, slot = np.unique(
        np.concatenate([a_rows, cl, cl, cr, cr]) * n +
        np.concatenate([a_cols, cl, cr, cl, cr]), return_inverse=True)
    indptr = np.zeros(n + 1, dtype=np.intc)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return (indptr, (keys % n).astype(np.intc), a_face, sign_w,
            slot[:len(a_face)], slot[len(a_face):])


def _oracle_data(disc, maps, flux0, K, dk_l, dk_r):
    """The data of A and J scattered through the per-entry maps of
    _oracle_pattern, one bincount each."""
    _, indices, a_face, sign_w, a_slot, j_slot = maps
    A = np.bincount(a_slot, sign_w * K[a_face], minlength=len(indices))
    fi = disc.int_faces
    fl = flux0[fi]
    jl, jr = dk_l[fi] * fl, dk_r[fi] * fl
    J = A + np.bincount(j_slot, np.concatenate([jl, jr, -jl, -jr]),
                        minlength=len(indices))
    return A, J


class GivenFaces(Discretization):
    """A Discretization whose face system returns the arrays in faces,
    (flux0, K, dk_l, dk_r), whatever the state."""

    def _face_system(self, h, q, kind, need_deriv):
        flux0, K, dk_l, dk_r = self.faces
        return (flux0, K, dk_l, dk_r) if need_deriv else \
            (flux0, K, None, None)


@pytest.mark.parametrize("mode", ["central", "upwind"])
@pytest.mark.parametrize("grid", ["400", "triangular:8x8"])
@pytest.mark.parametrize("scheme", ["tpfa", "mpfa-o"])
def test_operators_are_the_former_scatter(scheme, grid, mode):
    disc = GivenFaces(build_dam("vgm", grid, mode), scheme)
    maps = _oracle_pattern(disc)
    assert np.array_equal(disc.order.indptr, maps[0])
    assert np.array_equal(disc.order.indices, maps[1])
    rng = np.random.default_rng(len(disc.face_ids))
    n_faces = len(disc.face_ids)
    h = np.zeros(disc.n_cells)
    # permeabilities over eight, two or no decades, base fluxes and
    # derivative terms of either sign over as many: terms of one scale
    # make a sum's rounding depend on its order. Upwinding leaves a
    # face side without a derivative.
    for draw in range(18):
        decades = (8.0, 2.0, 0.0)[draw % 3]
        K = 10.0 ** rng.uniform(-decades, 0.0, n_faces)
        flux0, dk_l, dk_r = rng.normal(size=(3, n_faces)) * \
            10.0 ** rng.uniform(-decades / 2, decades / 2, (3, n_faces))
        if mode == "upwind":
            dk_l[rng.random(n_faces) < 0.25] = 0.0
            dk_r[rng.random(n_faces) < 0.25] = 0.0
        disc.faces = (flux0, K, dk_l, dk_r)
        A, J = _oracle_data(disc, maps, flux0, K, dk_l, dk_r)
        assert np.array_equal(_bits(disc.assemble(h, 1.0, "linear").A.data),
                              _bits(A))
        assert np.array_equal(
            _bits(disc.assemble_jacobian(h, 1.0, "linear").data), _bits(J))


@pytest.mark.parametrize("kind", ["linear", "power"])
@pytest.mark.parametrize("mode", ["central", "upwind"])
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("scheme", ["tpfa", "mpfa-o"])
def test_evaluations_agree_with_oracles(scheme, problem, mode, kind):
    spec = PROBLEMS[problem](mode)
    disc = Discretization(spec, scheme)
    oracle = OracleDiscretization(spec, scheme)
    assert np.array_equal(disc.kr_dir, oracle.kr_dir)
    for h in _states(disc):
        for q in (0.0, 0.35, 1.0):
            _agree(disc.residual(h, q, kind), oracle.residual(h, q, kind),
                   scheme)
            asm, ref = disc.assemble(h, q, kind), oracle.assemble(h, q, kind)
            for new, old in ((asm.A.data, ref.A.data), (asm.b, ref.b),
                             (asm.F, ref.F)):
                _agree(new, old, scheme)
            J, F = disc.assemble_jacobian(h, q, kind, with_residual=True)
            J_ref, F_ref = oracle.assemble_jacobian(h, q, kind,
                                                    with_residual=True)
            _agree(J.data, J_ref.data, scheme)
            _agree(F, F_ref, scheme)
            _agree(disc.face_fluxes(h, q, kind),
                   oracle.face_fluxes(h, q, kind), scheme)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("n", [1.2, 1.5, 3.0])
def test_vgm_curves_agree_with_oracle(n):
    # every branch: wet, rounding to saturated, ordinary, overflowing to
    # dry, and NaN, in one array
    psi = np.concatenate([
        [0.0, 3.5, 6.6e-12, -1e-17, -5e-324, -1e300, -np.inf, np.nan],
        -np.geomspace(1e-6, 1e6, 40), [np.nan, -2.0, 0.5]])
    args = (psi, 0.05, 0.4, 1.3, n)
    for need_deriv in (False, True):
        new = _kernels.vgm_curves(*args, need_deriv=need_deriv)
        old = _oracle_vgm_curves(*args, need_deriv=need_deriv)
        for a, b in zip(new, old):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(_bits(a), _bits(b))


def _check_tri512_against_the_oracle(solver_cfg, iterations):
    """The tri512 dam, TPFA, linear continuation under solver_cfg on
    Discretization and OracleDiscretization: bitwise equal heads, steps
    and trace rows, in `iterations` iterations."""
    spec = build_dam("vgm", "triangular:16x16")
    runs = []
    for cls in (Discretization, OracleDiscretization):
        h, report = run_continuation(
            cls(spec, "tpfa"), solver_cfg, ContinuationConfig(kind="linear"))
        runs.append((h, report))
    (h, report), (h_ref, ref) = runs
    assert report.total_iterations == ref.total_iterations == iterations
    assert np.array_equal(_bits(h), _bits(h_ref))
    assert [(s.q_target, s.outcome, s.final_hash) for s in report.steps] == \
        [(s.q_target, s.outcome, s.final_hash) for s in ref.steps]
    for step, ref_step in zip(report.steps, ref.steps):
        assert step.trace.rows() == ref_step.trace.rows()


def test_stall_trace_is_the_oracles():
    # the tri512 stall workload's configuration with plain Picard: 401
    # iterations through Picard, Newton, line searches and failed steps
    _check_tri512_against_the_oracle(
        SolverConfig(method="mixed", nit_max=80, anderson=0), 401)


def test_anderson_trace_is_the_oracles():
    # at the defaults the Picard steps are Anderson-mixed and the same
    # dam converges in one level after q = 0
    _check_tri512_against_the_oracle(SolverConfig(), 10)
