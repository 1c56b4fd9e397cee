"""Vectorized numpy kernels for constitutive curves and face assembly.

Only a Jacobian needs derivatives: residuals (every line-search trial),
Picard matrices and face fluxes use kr alone. The curve kernels and
face_system take need_deriv and, when it is false, skip theta and every
derivative; kr comes from the same operations either way, so it is
bitwise the same.

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

    Parameters
    ----------
    psi : float array
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
    # g = 1 - (1 - t)^m via expm1/log1p: avoids the cancellation that
    # otherwise dominates g for small t
    la = np.log1p(-t)
    g = -np.expm1(m * la)
    kr = np.ones_like(psi)
    kr[~wet] = np.where(sat, 1.0, np.where(dry, 0.0, sqrt_se * g * g))
    if not need_deriv:
        return None, None, kr, None

    # (alpha p)^(n-1) = u/(alpha p) and (1+u)^(-m-1) = se/(1+u); ditto
    # (1-t)^(m-1) = (1-g)/(1-t) and se^(1/m-1) = t/se below
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


def face_system(h, kr, dkr, kr_dir, cell_l, cell_r, ptr, col, w, g,
                q, kind_code, mode_code, need_deriv):
    """Per-face base flux and continued permeability with derivatives.

    The base flux of face f is sum(w[ptr[f]:ptr[f+1]] * h[col[...]]) +
    g[f]. Face permeability uses the central half-sum (mode_code 0) or
    the higher-head upwind value (mode_code 1, ties fall back to the
    half-sum); Dirichlet boundary faces (cell_r < 0) use the precomputed
    kr_dir value, which carries no derivative. dkr is read only when
    need_deriv is true, so it may be None otherwise.

    Returns
    -------
    flux0, kface, dk_l, dk_r : float arrays over faces
        dk_l / dk_r are d(kface)/dh of the left/right cell, None when
        need_deriv is false.
    """
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

    K, dKdkf = continuation_apply(kf, q, kind_code, need_deriv)
    if not need_deriv:
        return flux0, K, None, None
    dk_l = np.where(bdry, 0.0, dKdkf * wl * dkr[cell_l])
    dk_r = np.where(bdry, 0.0, dKdkf * wr * dkr[safe_r])
    return flux0, K, dk_l, dk_r


def scatter_faces(values, cell_l, cell_r, n_cells):
    """Signed per-cell accumulation of face quantities.

    Adds values to the first adjacent cell and subtracts them from the
    second where it exists (cell_r >= 0).
    """
    out = np.bincount(cell_l, weights=values, minlength=n_cells)
    interior = cell_r >= 0
    if interior.any():
        out -= np.bincount(cell_r[interior], weights=values[interior],
                           minlength=n_cells)
    return out
