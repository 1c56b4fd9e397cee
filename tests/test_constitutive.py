"""Constitutive curves: frozen values, bounds, monotonicity, derivatives.

Frozen expected values were computed independently with 40-digit mpmath
evaluations of the closed forms.
"""

import logging

import numpy as np
import pytest

from richardsfv import _kernels
from richardsfv.constitutive import (UnconfinedParams, VgmParams,
                                     cell_curves, continuation_kr,
                                     unconf_theta, vgm_kr_of_head,
                                     vgm_kr_of_theta, vgm_theta)

P_REF = VgmParams(theta_r=0.1, theta_s=0.4, alpha=1.0, n=2.0)
U_REF = UnconfinedParams(phi=0.3, alpha_phi=1e-2, alpha_theta=1e-3)


# -- van Genuchten water content --------------------------------------

def test_vgm_theta_saturated():
    assert vgm_theta(0.0, P_REF) == P_REF.theta_s
    assert vgm_theta(3.5, P_REF) == P_REF.theta_s


def test_vgm_theta_dry_limit():
    assert vgm_theta(-1e12, P_REF) == pytest.approx(P_REF.theta_r, abs=1e-9)


def test_vgm_theta_frozen_value():
    # theta(-1) = 0.1 + 0.3/sqrt(2), mpmath: 0.31213203435596426
    assert vgm_theta(-1.0, P_REF) == pytest.approx(0.31213203435596426,
                                                   rel=1e-14)


def test_vgm_theta_bounds_and_monotone():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = VgmParams(theta_r=rng.uniform(0, 0.2),
                      theta_s=rng.uniform(0.3, 0.6),
                      alpha=rng.uniform(0.1, 5.0),
                      n=rng.uniform(1.05, 4.0))
        psi = np.sort(rng.uniform(-50, 5, size=20))
        th = np.array([vgm_theta(v, p) for v in psi])
        assert (th >= p.theta_r - 1e-15).all()
        assert (th <= p.theta_s + 1e-15).all()
        assert (np.diff(th) >= -1e-15).all()


# -- Mualem relative permeability -------------------------------------

def test_vgm_kr_endpoints_exact():
    assert vgm_kr_of_theta(P_REF.theta_s, P_REF) == 1.0
    assert vgm_kr_of_theta(P_REF.theta_r, P_REF) == 0.0


def test_vgm_kr_frozen_value():
    # Se = 0.5, m = 0.5: sqrt(.5)*(1 - sqrt(.75))^2, mpmath:
    # 0.012691995684869119
    theta = P_REF.theta_r + 0.5 * (P_REF.theta_s - P_REF.theta_r)
    assert vgm_kr_of_theta(theta, P_REF) == pytest.approx(
        0.012691995684869119, rel=1e-14)


def test_vgm_kr_domain_error():
    with pytest.raises(ValueError):
        vgm_kr_of_theta(P_REF.theta_r - 1e-3, P_REF)
    with pytest.raises(ValueError):
        vgm_kr_of_theta(P_REF.theta_s + 1e-3, P_REF)


def test_vgm_kr_monotone():
    thetas = np.linspace(P_REF.theta_r, P_REF.theta_s, 200)
    kr = np.array([vgm_kr_of_theta(t, P_REF) for t in thetas])
    assert (np.diff(kr) >= 0).all()
    assert (kr >= 0).all() and (kr <= 1).all()


def test_vgm_kr_of_head_composition():
    # kr(h) = kr(theta(h - z)); frozen mpmath composition at psi = -1:
    # Se = 1/sqrt(2), kr = 0.072137507877850748
    assert vgm_kr_of_head(4.0, 5.0, P_REF) == pytest.approx(
        0.072137507877850748, rel=1e-13)
    theta = vgm_theta(-1.0, P_REF)
    assert vgm_kr_of_head(4.0, 5.0, P_REF) == pytest.approx(
        vgm_kr_of_theta(theta, P_REF), rel=1e-13)


def test_vgm_kr_of_head_saturated():
    assert vgm_kr_of_head(5.0, 5.0, P_REF) == 1.0
    assert vgm_kr_of_head(9.0, 5.0, P_REF) == 1.0


# -- unconfined model ---------------------------------------------------

def test_unconf_theta_branches():
    # saturated branch
    assert unconf_theta(2.0, 0.0, 1.0, U_REF) == pytest.approx(0.3)
    # linear branch at mid-cell: 0.3 * 0.5
    assert unconf_theta(0.5, 0.0, 1.0, U_REF) == pytest.approx(0.15)
    # breakpoint h_r: both branches give phi * alpha_phi
    h_r = 0.0 + U_REF.alpha_phi * 1.0
    assert unconf_theta(h_r, 0.0, 1.0, U_REF) == pytest.approx(
        U_REF.phi * U_REF.alpha_phi, rel=1e-14)


def test_unconf_breakpoint_continuity():
    z_min, z_max = 2.0, 5.0
    h_r = z_min + U_REF.alpha_phi * (z_max - z_min)
    eps = 1e-9
    for h_star in (z_max, h_r):
        lo = unconf_theta(h_star - eps, z_min, z_max, U_REF)
        hi = unconf_theta(h_star + eps, z_min, z_max, U_REF)
        assert abs(hi - lo) < 1e-8
    # exact branch agreement at the breakpoints
    assert abs(unconf_theta(z_max, z_min, z_max, U_REF) - U_REF.phi) < 1e-14
    second = U_REF.phi * (h_r - z_min) / (z_max - z_min)
    third = U_REF.phi * U_REF.alpha_phi
    assert abs(second - third) < 1e-14


def test_unconf_theta_positive_with_clamp():
    th = unconf_theta(-1e9, 0.0, 1.0, U_REF)
    assert th > 0.0
    assert th == pytest.approx(U_REF.phi * U_REF.alpha_phi * 1e-6)


def test_unconf_theta_monotone_and_below_breakpoint_fraction():
    # theta is non-decreasing in h through the clamp, h_r and z_max;
    # below h_r it lies strictly under phi*alpha_phi
    z_min, z_max = 0.0, 1.0
    h_r = z_min + U_REF.alpha_phi * (z_max - z_min)
    h_clamp = h_r - U_REF.alpha_phi * (1.0 - 1e-6) / U_REF.alpha_theta
    h = np.sort(np.concatenate([
        np.linspace(h_clamp - 5.0, z_max + 1.0, 2001),
        [h_clamp, h_r, z_max]]))
    th = unconf_theta(h, z_min, z_max, U_REF)
    assert (np.diff(th) >= 0.0).all()
    assert th[0] == pytest.approx(U_REF.phi * U_REF.alpha_phi * 1e-6)
    assert th[-1] == U_REF.phi
    assert (th[h < h_r] < U_REF.phi * U_REF.alpha_phi).all()


def test_unconf_kr_values():
    # kr = theta/phi: saturated, mid-cell, and at h_r = alpha_phi
    h = np.array([5.0, 0.5, U_REF.alpha_phi])
    kr = cell_curves(U_REF, h, None, np.zeros(3), np.ones(3))[2]
    for i, (v, expect) in enumerate(zip(h, [1.0, 0.5, U_REF.alpha_phi])):
        assert unconf_theta(v, 0.0, 1.0, U_REF) / U_REF.phi == \
            pytest.approx(expect, rel=1e-12)
        assert kr[i] == pytest.approx(expect, rel=1e-12)


def test_unconf_clamp_logged_once(caplog):
    # two cells below the floor, one above: one warning naming two cells
    h = np.array([-1e9, -2e9, 0.5])
    with caplog.at_level(logging.WARNING, logger="richardsfv.constitutive"):
        unconf_theta(h, 0.0, 1.0, U_REF)
    assert [r.getMessage() for r in caplog.records] == \
        ["unconfined theta floor active in 2 cells"]


# -- continuation wrapper ----------------------------------------------

@pytest.mark.parametrize("kind", ["linear", "power"])
def test_continuation_endpoints(kind):
    for kr in (1e-6, 0.2, 0.5, 1.0):
        assert continuation_kr(kr, 0.0, kind) == 1.0
        assert continuation_kr(kr, 1.0, kind) == pytest.approx(kr, rel=1e-15)


def test_continuation_frozen_values():
    assert continuation_kr(0.2, 0.5, "linear") == pytest.approx(0.6)
    assert continuation_kr(0.25, 0.5, "power") == pytest.approx(0.5)


def test_continuation_power_zero_limit():
    assert continuation_kr(0.0, 0.5, "power") == 0.0
    assert continuation_kr(0.0, 0.0, "power") == 1.0


def test_continuation_monotone_in_q():
    qs = np.linspace(0, 1, 11)
    for kind in ("linear", "power"):
        for kr in (0.05, 0.3, 0.9):
            vals = np.array([continuation_kr(kr, q, kind) for q in qs])
            assert (np.diff(vals) <= 1e-15).all()  # decreasing toward kr
            assert (vals >= kr - 1e-15).all() and (vals <= 1 + 1e-15).all()


def test_continuation_unknown_kind():
    with pytest.raises(ValueError):
        continuation_kr(0.5, 0.5, "cubic")


# -- parameter validation ------------------------------------------------

def test_vgm_params_validation():
    with pytest.raises(ValueError):
        VgmParams(theta_r=0.5, theta_s=0.4, alpha=1.0, n=2.0)
    with pytest.raises(ValueError):
        VgmParams(theta_r=0.1, theta_s=0.4, alpha=-1.0, n=2.0)
    with pytest.raises(ValueError):
        VgmParams(theta_r=0.1, theta_s=0.4, alpha=1.0, n=1.0)
    assert VgmParams(0.1, 0.4, 1.0, 2.0).m == pytest.approx(0.5)


def test_unconfined_params_validation():
    with pytest.raises(ValueError):
        UnconfinedParams(phi=0.0)
    with pytest.raises(ValueError):
        UnconfinedParams(alpha_phi=1.5)
    with pytest.raises(ValueError):
        UnconfinedParams(alpha_theta=-1.0)


# -- derivatives vs centered finite differences -------------------------

def _fd(fun, x, step):
    return (fun(x + step) - fun(x - step)) / (2.0 * step)


def test_vgm_derivatives_match_fd():
    from richardsfv import _kernels
    rng = np.random.default_rng(3)
    p = VgmParams(0.05, 0.4, 1.3, 1.7)
    psi = rng.uniform(-20.0, -0.05, size=50)  # away from the psi=0 kink
    theta, dtheta, kr, dkr = _kernels.vgm_curves(
        psi, p.theta_r, p.theta_s, p.alpha, p.n)
    step = 1e-6
    fd_theta = _fd(lambda x: vgm_theta(x, p), psi, step)
    scale_t = np.abs(dtheta).max()
    assert np.abs(fd_theta - dtheta).max() <= 1e-6 * scale_t

    fd_kr = _fd(lambda x: np.array([vgm_kr_of_head(v, 0.0, p) for v in x]),
                psi, step)
    err = np.abs(fd_kr - dkr) / np.maximum(np.abs(dkr), 1e-12)
    assert err.max() <= 1e-6


def test_unconf_derivatives_match_fd():
    from richardsfv import _kernels
    z_min, z_max = np.zeros(40), np.full(40, 3.0)
    rng = np.random.default_rng(4)
    h_r = U_REF.alpha_phi * 3.0
    # sample each branch, away from the kinks
    h = np.concatenate([rng.uniform(h_r + 0.1, 2.9, 20),
                        rng.uniform(-5.0, h_r - 0.1, 10),
                        rng.uniform(3.1, 8.0, 10)])
    _, dtheta, _, dkr, _ = _kernels.unconf_curves(
        h, z_min, z_max, U_REF.phi, U_REF.alpha_phi, U_REF.alpha_theta, 1e-6)
    step = 1e-6
    fd = _fd(lambda x: np.array(
        [unconf_theta(v, 0.0, 3.0, U_REF) for v in x]), h, step)
    assert np.abs(fd - dtheta).max() <= 1e-6 * max(np.abs(dtheta).max(), 1.0)
    fd_kr = fd / U_REF.phi
    assert np.abs(fd_kr - dkr).max() <= 1e-6


# -- kr without derivatives ----------------------------------------------

def _mualem_kr_steps(psi, alpha, n):
    """Mualem kr of unsaturated, not dry psi, by the kernel's own
    operations written out one step at a time."""
    m = 1.0 - 1.0 / n
    se = np.power(1.0 + np.power(alpha * -psi, n), -m)
    t = np.power(se, 1.0 / m)
    g = -np.expm1(m * np.log1p(-t))
    return np.sqrt(se) * g * g


VGM_BRANCHES = {
    # psi >= 0
    "wet": np.array([0.0, 1e-300, 6.6e-12, 3.5]),
    # se rounds to within 1e-15 of 1
    "saturated": np.array([-1e-17, -3e-17, -1e-30, -5e-324]),
    # (alpha |psi|)^n overflows, so se = 0
    "dry": np.array([-1e300, -1.7e308, -np.inf]),
    "ordinary": -np.geomspace(1e-5, 1e5, 57),
}


@pytest.mark.parametrize("branch", sorted(VGM_BRANCHES))
@pytest.mark.parametrize("n", [1.2, 2.0])
def test_vgm_kr_alone_is_bitwise_the_full_kr(n, branch):
    p = VgmParams(0.05, 0.4, 1.3, n)
    psi = VGM_BRANCHES[branch]
    args = (psi, p.theta_r, p.theta_s, p.alpha, p.n)
    full = _kernels.vgm_curves(*args)
    alone = _kernels.vgm_curves(*args, need_deriv=False)
    assert alone[0] is None and alone[1] is None and alone[3] is None
    assert np.array_equal(alone[2], full[2])
    with np.errstate(over="ignore"):
        se = np.power(1.0 + np.power(p.alpha * np.maximum(-psi, 0.0), n),
                      -p.m)
    if branch == "wet":
        assert (psi >= 0.0).all() and (alone[2] == 1.0).all()
    elif branch == "saturated":
        assert (psi < 0.0).all() and (se >= _kernels._SE_SAT).all()
        assert (alone[2] == 1.0).all()
    elif branch == "dry":
        assert (se == 0.0).all() and (alone[2] == 0.0).all()
    else:
        assert ((se > 0.0) & (se < _kernels._SE_SAT)).all()
        assert np.array_equal(alone[2], _mualem_kr_steps(psi, p.alpha, n))


def test_unconf_kr_alone_is_bitwise_the_full_kr():
    z_min, z_max = np.zeros(60), np.full(60, 3.0)
    # all three branches and the clamp below the third
    h = np.linspace(-40.0, 5.0, 60)
    args = (h, z_min, z_max, U_REF.phi, U_REF.alpha_phi, U_REF.alpha_theta,
            1e-6)
    *full, n_full = _kernels.unconf_curves(*args)
    *alone, n_alone = _kernels.unconf_curves(*args, need_deriv=False)
    assert n_alone == n_full > 0
    assert alone[0] is None and alone[1] is None and alone[3] is None
    assert np.array_equal(alone[2], full[2])


# -- the scalar API is the per-cell evaluation ----------------------------

def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _assert_pointwise(f, args, expect):
    """f(*args) is expect bit for bit, in the shape of the args; on the
    i-th entries, given as floats or as 0-d arrays, it is the float
    expect[i] (the pinned rule: a result of shape () is a float)."""
    got = f(*args)
    assert got.shape == expect.shape
    assert np.array_equal(_bits(got), _bits(expect))
    got = f(*(a.reshape(1, -1) for a in args))
    assert np.array_equal(_bits(got), _bits(expect.reshape(1, -1)))
    for i in range(len(expect)):
        for wrap in (float, np.asarray):
            v = f(*(wrap(a[i]) for a in args))
            assert type(v) is float and _bits(v) == _bits(expect[i])


@pytest.mark.parametrize("n", [1.2, 2.0])
def test_vgm_scalar_api_is_cell_curves(n):
    p = VgmParams(0.05, 0.4, 1.3, n)
    psi = np.concatenate([VGM_BRANCHES[b] for b in sorted(VGM_BRANCHES)])
    z = np.linspace(-3.0, 3.0, len(psi))
    h = psi + z
    _assert_pointwise(lambda psi: vgm_theta(psi, p), (psi,),
                      cell_curves(p, psi, np.zeros_like(psi), None, None)[0])
    _assert_pointwise(lambda h, z: vgm_kr_of_head(h, z, p), (h, z),
                      cell_curves(p, h, z, None, None)[2])


def test_vgm_kr_of_theta_scalar_api():
    # its own Mualem-of-theta formula, under the same float rule
    p = VgmParams(0.05, 0.4, 1.3, 1.2)
    theta = np.linspace(p.theta_r, p.theta_s, 13)
    _assert_pointwise(lambda theta: vgm_kr_of_theta(theta, p), (theta,),
                      vgm_kr_of_theta(theta, p))


def test_unconf_scalar_api_is_cell_curves():
    h = np.linspace(-40.0, 5.0, 60)  # all three branches and the clamp
    z_min = np.linspace(-1.0, 0.0, 60)
    z_max = z_min + 3.0
    _assert_pointwise(lambda *a: unconf_theta(*a, U_REF), (h, z_min, z_max),
                      cell_curves(U_REF, h, None, z_min, z_max)[0])


@pytest.mark.parametrize("kind, code", [("linear", 0), ("power", 1)])
@pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
def test_continuation_kr_is_continuation_apply(kind, code, q):
    kr = np.array([0.0, 1e-300, 1e-6, 0.2, 0.5, 1.0])
    _assert_pointwise(lambda kr: continuation_kr(kr, q, kind), (kr,),
                      _kernels.continuation_apply(kr, q, code, False)[0])


def test_no_derivative_unless_asked():
    kr = np.array([0.0, 0.2, 1.0])
    for code in (0, 1):
        for q in (0.0, 0.5):
            assert _kernels.continuation_apply(kr, q, code, False)[1] is None
            assert _kernels.continuation_apply(kr, q, code, True)[1] \
                is not None
