"""Vectorized numpy kernels for constitutive curves and face assembly.

Only a Jacobian needs derivatives: residuals (every line-search trial),
Picard matrices and face fluxes use kr alone. The curve kernels and
face_system take need_deriv and, when it is false, skip theta and every
derivative; kr comes from the same operations either way, so it is
bitwise the same. face_system and scatter_faces take the face
topology precomputed (see Discretization), so a call builds no mask.

All functions are free of Python-level state. Callers reach them
through this module's attributes (``_kernels.face_system``) rather than
importing the names, so a wrapper installed on the module sees every
call.
"""

import numpy as np

# Effective saturations within this distance of 1 are treated as fully
# saturated so the n < 2 derivative singularity cannot inject inf/nan.
_SE_SAT = 1.0 - 1e-15


def vgm_curves(psi, theta_r, theta_s, alpha, n, need_deriv=True):
    """Van Genuchten water content and Mualem relative permeability.

    The Mualem formula and the derivatives run only on the entries that
    are neither saturated (within 1e-15 of 1) nor dry (0), and on NaN.

    Parameters
    ----------
    psi : 1-D float array
        Capillary pressure head (m); the saturated branch psi >= 0
        returns theta_s / kr = 1 with zero derivatives.
    theta_r, theta_s, alpha, n : float
        Retention parameters; m = 1 - 1/n.
    need_deriv : bool
        When false only kr is computed, by the same operations as
        otherwise, and theta, dtheta_dpsi and dkr_dpsi are None.

    Returns
    -------
    theta, dtheta_dpsi, kr, dkr_dpsi : float arrays
    """
    psi = np.asarray(psi, dtype=float)
    m = 1.0 - 1.0 / n

    unsat = (~(psi >= 0.0)).nonzero()[0]  # psi < 0, and NaN
    p = -psi[unsat]
    with np.errstate(over="ignore"):
        u = np.power(alpha * p, n)
        se = np.power(1.0 + u, -m)
    sat = se >= _SE_SAT
    dry = se <= 0.0
    mid = ~(sat | dry)  # NaN included
    at = unsat[mid]
    s = se[mid]

    sqrt_se = np.sqrt(s)
    t = np.power(s, 1.0 / m)
    # g = 1 - (1 - t)^m via expm1/log1p: avoids the cancellation that
    # otherwise dominates g for small t
    la = np.log1p(-t)
    g = -np.expm1(m * la)
    kr = np.ones(psi.shape)
    kr[at] = sqrt_se * g * g
    kr[unsat[dry]] = 0.0
    if not need_deriv:
        return None, None, kr, None

    # (alpha p)^(n-1) = u/(alpha p) and (1+u)^(-m-1) = se/(1+u); ditto
    # (1-t)^(m-1) = (1-g)/(1-t) and se^(1/m-1) = t/se below
    p, u = p[mid], u[mid]
    with np.errstate(over="ignore", invalid="ignore"):
        dse = m * n * alpha * (u / (alpha * p)) * (s / (1.0 + u))
        dse = np.where(np.isfinite(dse), dse, 0.0)
    dkr_dse = 0.5 / sqrt_se * g * g \
        + 2.0 * sqrt_se * g * ((1.0 - g) / (1.0 - t)) * (t / s)

    theta = np.full_like(psi, theta_s)
    dtheta = np.zeros(psi.shape)
    dkr = np.zeros(psi.shape)
    dtw = theta_s - theta_r
    theta[unsat] = np.where(sat, theta_s, theta_r + dtw * se)
    dtheta[at] = dtw * dse
    dkr[at] = dkr_dse * dse
    return theta, dtheta, kr, dkr


def unconf_curves(h, z_min, z_max, phi, alpha_phi, alpha_theta, floor_frac,
                  need_deriv=True):
    """Piecewise-linear unconfined water content and kr = theta/phi.

    Kinks use the right-hand derivative. The third branch is clamped at
    phi * alpha_phi * floor_frac to keep theta positive; the number of
    clamped entries is returned so callers can log it. When need_deriv
    is false only kr is returned, and theta, dtheta_dh and dkr_dh are
    None.

    Returns
    -------
    theta, dtheta_dh, kr, dkr_dh : float arrays
    n_clamped : int
    """
    h = np.asarray(h, dtype=float)
    z_min = np.asarray(z_min, dtype=float)
    z_max = np.asarray(z_max, dtype=float)
    dz = z_max - z_min
    h_r = z_min + alpha_phi * dz

    theta = np.where(h >= z_max, phi,
                     np.where(h >= h_r,
                              phi * (h - z_min) / dz,
                              phi * (alpha_phi - alpha_theta * (h_r - h))))
    floor = phi * alpha_phi * floor_frac
    clamped = theta < floor
    n_clamped = int(clamped.sum())
    if n_clamped:
        theta = np.where(clamped, floor, theta)
    if not need_deriv:
        return None, None, theta / phi, None, n_clamped
    dtheta = np.where(h >= z_max, 0.0,
                      np.where(h >= h_r, phi / dz, phi * alpha_theta))
    if n_clamped:
        dtheta = np.where(clamped, 0.0, dtheta)
    return theta, dtheta, theta / phi, dtheta / phi, n_clamped


def continuation_apply(kf, q, kind_code, need_deriv):
    """Apply the continuation wrapper K(., q) to face permeabilities.

    kind_code 0 is the affine variant 1 + q*(kf - 1), kind_code 1 the
    power variant kf**q. Returns (K, dK_dkf); dK_dkf is None when
    need_deriv is false. kf = 0 under the power variant maps to K = 0
    with zero slope (documented limit).
    """
    kf = np.asarray(kf, dtype=float)
    if q == 0.0:
        K = np.ones_like(kf)
        return K, np.zeros_like(kf) if need_deriv else None
    if kind_code == 0:
        K = 1.0 + q * (kf - 1.0)
        return K, np.full_like(kf, q) if need_deriv else None
    zero = kf <= 0.0
    kf_s = np.where(zero, 1.0, kf)
    K = np.where(zero, 0.0, np.power(kf_s, q))
    if not need_deriv:
        return K, None
    return K, np.where(zero, 0.0, q * np.power(kf_s, q - 1.0))


def face_system(h, kr, dkr, kr_dir, flux_op, g, cell_l, cell_r0, bdry,
                q, kind_code, mode_code, need_deriv):
    """Per-face base flux and continued permeability with derivatives.

    The base flux of face f is row f of flux_op @ h, plus g[f]; flux_op
    is the face x cell CSR matrix of the stencil weights. cell_l and
    cell_r0 are the two cells of each face, cell_r0 clamped to 0 on the
    Dirichlet boundary faces, whose indices are bdry. Face permeability
    uses the central half-sum (mode_code 0) or the higher-head upwind
    value (mode_code 1, ties fall back to the half-sum); boundary faces
    use the precomputed kr_dir value, which carries no derivative. dkr
    is read only when need_deriv is true, so it may be None otherwise.

    Returns
    -------
    flux0, kface, dk_l, dk_r : float arrays over faces
        dk_l / dk_r are d(kface)/dh of the left/right cell, None when
        need_deriv is false.
    """
    flux0 = flux_op @ h + g

    kr_l = kr[cell_l]
    kr_r = kr[cell_r0]
    if mode_code == 0:
        kf = 0.5 * (kr_l + kr_r)
        wl = wr = 0.5
    else:
        h_l = h[cell_l]
        h_r = h[cell_r0]
        wl = np.where(h_l > h_r, 1.0, np.where(h_l < h_r, 0.0, 0.5))
        wr = 1.0 - wl
        kf = wl * kr_l + wr * kr_r
    kf[bdry] = kr_dir[bdry]

    K, dKdkf = continuation_apply(kf, q, kind_code, need_deriv)
    if not need_deriv:
        return flux0, K, None, None
    dk_l = dKdkf * wl * dkr[cell_l]
    dk_r = dKdkf * wr * dkr[cell_r0]
    dk_l[bdry] = dk_r[bdry] = 0.0
    return flux0, K, dk_l, dk_r


def scatter_faces(values, cell_l, int_faces, int_r, n_cells):
    """Signed per-cell accumulation of face quantities.

    Adds values to the first adjacent cell of every face and subtracts
    those of the interior faces int_faces from their second cells int_r.
    """
    out = np.bincount(cell_l, weights=values, minlength=n_cells)
    if len(int_faces):
        out -= np.bincount(int_r, weights=values[int_faces],
                           minlength=n_cells)
    return out
