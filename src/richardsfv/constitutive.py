"""Constitutive relationships for variably saturated flow.

Two models: the van Genuchten / Mualem retention and relative
permeability curves, and the mesh-dependent piecewise-linear unconfined
model where kr equals the cell saturation, and a continuation wrapper
interpolating each kr toward 1. cell_curves is the one per-cell
evaluation of both models; the scalar functions are calls to it (or,
for the wrapper, to the kernel assembly uses), except vgm_kr_of_theta,
an independent Mualem-of-theta formula.
"""

import itertools
import logging
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import _kernels
from .solvers import _check_reals

__all__ = [
    "VgmParams",
    "UnconfinedParams",
    "ConstitutiveModel",
    "vgm_theta",
    "vgm_kr_of_theta",
    "vgm_kr_of_head",
    "unconf_theta",
    "continuation_kr",
    "cell_curves",
]

logger = logging.getLogger(__name__)

# Third-branch clamp: theta never drops below phi*alpha_phi*UNCONF_FLOOR.
UNCONF_FLOOR = 1e-6
# Continuation kinds; a kind's code for the kernels is its index.
KINDS = ("linear", "power")


@dataclass(frozen=True)
class VgmParams:
    """Van Genuchten retention parameters; m is derived as 1 - 1/n."""

    theta_r: float
    theta_s: float
    alpha: float  # 1/m
    n: float

    def __post_init__(self):
        _check_reals(self, finite=("alpha", "n"))
        if not 0.0 <= self.theta_r < self.theta_s <= 1.0:
            raise ValueError(
                f"need 0 <= theta_r < theta_s <= 1, got "
                f"{self.theta_r}, {self.theta_s}")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.n > 1.0:
            raise ValueError(f"n must exceed 1, got {self.n}")

    @property
    def m(self):
        return 1.0 - 1.0 / self.n


@dataclass(frozen=True)
class UnconfinedParams:
    """Unconfined-model parameters: porosity and the two small slopes.

    For a cell with vertical extent [z_min, z_max] and lower breakpoint
    h_r = z_min + alpha_phi*(z_max - z_min), the water content is

    - theta = phi for h >= z_max (saturated);
    - theta = phi*(h - z_min)/(z_max - z_min) for h_r <= h < z_max;
    - theta = phi*(alpha_phi - alpha_theta*(h_r - h)) for h < h_r.

    theta is continuous and non-decreasing in h. Below h_r it falls
    under phi*alpha_phi with slope phi*alpha_theta, and it is clamped at
    phi*alpha_phi*UNCONF_FLOOR. kr = theta/phi. Both slopes are kept
    small so they only guard positivity of the water content. PAPER.md
    carries only the paper's abstract, so these docstrings define the
    model.
    """

    phi: float = 0.3
    alpha_phi: float = 1e-2
    alpha_theta: float = 1e-3  # 1/m

    def __post_init__(self):
        _check_reals(self, finite=("alpha_theta",))
        if not 0.0 < self.phi <= 1.0:
            raise ValueError(f"porosity must be in (0, 1], got {self.phi}")
        if not 0.0 < self.alpha_phi < 1.0:
            raise ValueError(
                f"alpha_phi must be in (0, 1), got {self.alpha_phi}")
        if not self.alpha_theta > 0.0:
            raise ValueError(
                f"alpha_theta must be positive, got {self.alpha_theta}")


ConstitutiveModel = Union[VgmParams, UnconfinedParams]


def _pointwise(fn, *args):
    """fn applied to args as float arrays broadcast to one shape and
    flattened. A result of shape () (all args scalars or 0-d arrays) is
    returned as a float, any other as an array of the broadcast shape."""
    args = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    out = fn(*(a.reshape(-1) for a in args))
    shape = args[0].shape
    return float(out[0]) if shape == () else out.reshape(shape)


def vgm_theta(psi, p):
    """Water content theta(psi); saturated branch returns theta_s.

    Examples frozen in the tests: psi=0 gives theta_s; psi=-1 with
    (0.1, 0.4, 1, 2) gives 0.31213203435596426.
    """
    return _pointwise(lambda psi: cell_curves(p, psi, 0.0, None, None)[0],
                      psi)


def vgm_kr_of_theta(theta, p):
    """Mualem relative permeability as a function of water content.

    Raises ValueError outside [theta_r, theta_s]; assembly clamps before
    calling. Endpoints map exactly to 0 and 1.
    """
    def mualem(theta):
        if (theta < p.theta_r).any() or (theta > p.theta_s).any():
            raise ValueError(
                f"theta outside [{p.theta_r}, {p.theta_s}]")
        se = (theta - p.theta_r) / (p.theta_s - p.theta_r)
        m = p.m
        kr = np.sqrt(se) * (1.0 - np.power(1.0 - np.power(se, 1.0 / m),
                                           m)) ** 2
        return np.where(se <= 0.0, 0.0, np.where(se >= 1.0, 1.0, kr))

    return _pointwise(mualem, theta)


def vgm_kr_of_head(h, z, p):
    """kr as a function of hydraulic head: kr(theta(h - z))."""
    return _pointwise(
        lambda h, z: cell_curves(p, h, z, None, None, False)[2], h, z)


def unconf_theta(h, z_min, z_max, p):
    """Piecewise-linear cell water content of the unconfined model.

    z_min / z_max are the cell's vertical vertex extents. Continuous at
    both breakpoints; clamped at phi*alpha_phi*1e-6 below the residual
    branch (the clamp is logged when it activates).
    """
    return _pointwise(
        lambda h, lo, hi: cell_curves(p, h, None, lo, hi)[0], h, z_min, z_max)


def continuation_kr(kr_value, q, kind):
    """Continuation-wrapped permeability K(kr, q).

    kind "linear" is 1 + q*(kr - 1); kind "power" is kr**q. Both equal 1
    at q = 0 and kr_value at q = 1. kr_value = 0 under "power" with
    q > 0 returns the limit 0.
    """
    code = _kind_code(kind)
    return _pointwise(lambda kr: _kernels.continuation_apply(
        kr, float(q), code, False)[0], kr_value)


def _kind_code(kind):
    if kind not in KINDS:
        raise ValueError(f"unknown continuation kind {kind!r} "
                         f"(supported: {', '.join(KINDS)})")
    return KINDS.index(kind)


def cell_curves(model, h, z_centroid, z_min, z_max, need_deriv=True):
    """Vectorized (theta, dtheta_dh, kr, dkr_dh) for an array of cells.

    VGM evaluates at psi = h - z_centroid; the unconfined model uses the
    cell vertical extents directly, and a clamp at its theta floor is
    logged here, once per call (once per block of _one_clamp_warning).
    When need_deriv is false only kr is
    evaluated, and theta, dtheta_dh and dkr_dh are None.
    """
    if isinstance(model, VgmParams):
        return _kernels.vgm_curves(
            h - z_centroid, model.theta_r, model.theta_s,
            model.alpha, model.n, need_deriv)
    th, dth, kr, dkr, n_clamped = _kernels.unconf_curves(
        h, z_min, z_max, model.phi, model.alpha_phi, model.alpha_theta,
        UNCONF_FLOOR, need_deriv)
    if n_clamped:
        logger.warning("unconfined theta floor active in %d cells", n_clamped)
    return th, dth, kr, dkr


@contextmanager
def _one_clamp_warning():
    """Within the block, only the first clamp warning of cell_curves is
    logged, however many of its calls clamp."""
    seen = itertools.count()

    def first(record):
        return next(seen) == 0

    logger.addFilter(first)
    try:
        yield
    finally:
        logger.removeFilter(first)
