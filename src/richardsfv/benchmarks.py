"""Preset problem builders: the modified dam experiments and
verification cases with known solutions.

The dam is a 10 m x 10 m homogeneous square with a rotated anisotropic
conductivity tensor, head 10 m on the left boundary and head 2 m on the
lower part (z <= 2 m) of the right boundary; all other boundaries are
impermeable. It is available with the unconfined constitutive model or
the van Genuchten-Mualem model with n = 1.2; note the kr derivative of
the VGM curve is discontinuous at saturation for n < 2, which is what
makes the VGM dam hard. The VGM parameters other than n (theta_r = 0.05,
theta_s = 0.4, alpha = 1 1/m) are artifact defaults, configurable per
call.
"""

from dataclasses import replace
from functools import partial

import numpy as np

from .constitutive import UnconfinedParams, VgmParams
from .discretization import Medium, ProblemSpec
from .mesh import gen_cartesian, gen_triangular

__all__ = [
    "dam_conductivity",
    "build_dam",
    "build_verification_linear",
    "build_layered_slab",
    "dam_mesh",
    "preset_names",
    "build_preset",
]

DAM_SIZE = 10.0  # m
DAM_K0 = 0.864  # m/day
DAM_ANGLE = np.pi / 6.0
DAM_ANISOTROPY = 10.0
DAM_H_LEFT = 10.0  # m
DAM_H_RIGHT = 2.0  # m, applied on the right boundary for z <= 2 m

DEFAULT_VGM = VgmParams(theta_r=0.05, theta_s=0.4, alpha=1.0, n=1.2)
DEFAULT_UNCONFINED = UnconfinedParams()

SLAB_K_VALUES = (4.76, 0.011, 4.76)  # m/day, bottom / middle / top layer
SLAB_ANISOTROPY = 0.1  # vertical/horizontal conductivity ratio


def dam_conductivity(k0=DAM_K0, angle=DAM_ANGLE, ratio=DAM_ANISOTROPY):
    """Rotated anisotropic tensor R diag(k0, ratio*k0) R^T in closed form:

        [[k0 (c^2 + ratio s^2),  (ratio-1) k0 s c],
         [(ratio-1) k0 s c,      k0 (s^2 + ratio c^2)]]

    with c = cos(angle), s = sin(angle). Eigenvalues are {k0, ratio*k0}.
    """
    c, s = np.cos(angle), np.sin(angle)
    off = (ratio - 1.0) * k0 * s * c
    return np.array([[k0 * (c * c + ratio * s * s), off],
                     [off, k0 * (s * s + ratio * c * c)]])


def dam_mesh(choice):
    """Resolve a named dam mesh: '400', '6400', '5500' (74x74 = 5476
    cells, the closest square grid to the nominal 5500), '1900'
    (31x31 triangulated = 1922 cells), or 'cartesian:NXxNZ' /
    'triangular:NXxNZ'."""
    named = {
        "400": ("cartesian", 20, 20),
        "6400": ("cartesian", 80, 80),
        "5500": ("cartesian", 74, 74),
        "1900": ("triangular", 31, 31),
    }
    if choice in named:
        kind, nx, nz = named[choice]
    else:
        try:
            kind, dims = choice.split(":")
            nx, nz = (int(d) for d in dims.lower().split("x"))
        except ValueError:
            raise ValueError(
                f"cannot parse mesh choice {choice!r}; expected one of "
                f"{sorted(named)} or 'cartesian:NXxNZ' / 'triangular:NXxNZ'"
            ) from None
    if kind == "cartesian":
        return gen_cartesian(nx, nz, DAM_SIZE, DAM_SIZE)
    if kind == "triangular":
        return gen_triangular(nx, nz, DAM_SIZE, DAM_SIZE)
    raise ValueError(f"unknown mesh kind {kind!r}")


def _split_right_boundary(mesh, z_cut):
    """Retag 'right' boundary faces: midpoints with z <= z_cut become
    'right_wet' (Dirichlet head), the rest 'right_dry' (impermeable).
    A mesh without 'right' faces is refused, one with no wet face as too
    coarse."""
    tags = mesh.face_tag.copy()
    right = tags == "right"
    if not right.any():
        raise ValueError("mesh has no boundary face tagged 'right'")
    wet = mesh.face_midpoint[:, 1] <= z_cut + 1e-12
    if not (right & wet).any():
        raise ValueError("mesh too coarse: no right-boundary face lies "
                         f"below z = {z_cut} m")
    tags[right & wet] = "right_wet"
    tags[right & ~wet] = "right_dry"
    return replace(mesh, face_tag=tags)


def build_dam(model="unconfined", mesh="400", kr_mode="central",
              vgm=DEFAULT_VGM, unconfined=DEFAULT_UNCONFINED):
    """Modified dam problem as a ProblemSpec.

    model is "unconfined" or "vgm"; mesh a Mesh2D or a choice string
    accepted by dam_mesh().
    """
    if isinstance(mesh, str):
        mesh = dam_mesh(mesh)
    mesh = _split_right_boundary(mesh, DAM_H_RIGHT)
    if model == "unconfined":
        cm = unconfined
    elif model == "vgm":
        cm = vgm
    else:
        raise ValueError(f"unknown dam model {model!r}")
    medium = Medium("dam", dam_conductivity(), cm)
    return ProblemSpec(
        mesh=mesh,
        media=(medium,),
        cell_medium=np.zeros(mesh.n_cells, dtype=np.int64),
        dirichlet={"left": DAM_H_LEFT, "right_wet": DAM_H_RIGHT},
        neumann={},
        source=0.0,
        kr_mode=kr_mode,
    )


def build_verification_linear(mesh, K=None, a=1.0, b=2.0, c=50.0,
                              model=DEFAULT_VGM):
    """Saturated linear-field verification problem.

    The exact head a*x + b*z + c is imposed as Dirichlet data on every
    boundary; c must be large enough that h >= z across the domain so
    kr is identically 1. Returns (spec, exact) where exact(x, z) is the
    field. MPFA-O must reproduce it on any grid; TPFA only on
    K-orthogonal ones.
    """
    if isinstance(mesh, str):
        mesh = dam_mesh(mesh)
    if K is None:
        K = dam_conductivity()

    def exact(x, z):
        return a * x + b * z + c

    zs = mesh.vertices[:, 1]
    h_at_verts = exact(mesh.vertices[:, 0], zs)
    if (h_at_verts < zs).any():
        raise ValueError(
            "field is unsaturated somewhere; increase the offset c")
    medium = Medium("uniform", np.asarray(K, dtype=float), model)
    dirichlet = {t: exact for t in mesh.tag_names()}
    spec = ProblemSpec(
        mesh=mesh,
        media=(medium,),
        cell_medium=np.zeros(mesh.n_cells, dtype=np.int64),
        dirichlet=dirichlet,
        source=0.0,
    )
    return spec, exact


def build_layered_slab(mesh="400", kr_mode="central",
                       unconfined=DEFAULT_UNCONFINED):
    """Synthetic heterogeneous slab: three horizontal layers with
    diagonal anisotropic K = diag(k, 0.1 k), k = 4.76 / 0.011 / 4.76
    m/day bottom to top, dam-style boundary conditions. Exercises strong
    heterogeneity; it does not model any real site.
    """
    if isinstance(mesh, str):
        mesh = dam_mesh(mesh)
    mesh = _split_right_boundary(mesh, DAM_H_RIGHT)
    height = mesh.vertices[:, 1].max()
    media = tuple(
        Medium(f"layer{i}", np.diag([k, SLAB_ANISOTROPY * k]), unconfined)
        for i, k in enumerate(SLAB_K_VALUES))
    zc = mesh.cell_centroid[:, 1]
    cell_medium = np.minimum(
        (zc / height * len(SLAB_K_VALUES)).astype(np.int64),
        len(SLAB_K_VALUES) - 1)
    return ProblemSpec(
        mesh=mesh,
        media=media,
        cell_medium=cell_medium,
        dirichlet={"left": DAM_H_LEFT, "right_wet": DAM_H_RIGHT},
        source=0.0,
        kr_mode=kr_mode,
    )


# Each preset name and its builder, called as builder(mesh, kr_mode).
PRESETS = {
    "dam-unconfined": partial(build_dam, "unconfined"),
    "dam-vgm": partial(build_dam, "vgm"),
    "layered-slab": build_layered_slab,
    "verify-linear": lambda mesh, _: build_verification_linear(mesh)[0],
}


def preset_names():
    return tuple(PRESETS)


def build_preset(name, mesh="400", kr_mode="central"):
    """CLI-facing preset dispatch; returns a ProblemSpec."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} "
                         f"(available: {', '.join(preset_names())})")
    return PRESETS[name](mesh, kr_mode)
