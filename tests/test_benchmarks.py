"""Preset builders: dam tensor, boundary assignment, verification cases."""

from dataclasses import fields
from functools import partial

import numpy as np
import pytest

from richardsfv.benchmarks import (build_dam, build_layered_slab,
                                   build_preset, build_verification_linear,
                                   dam_conductivity, dam_mesh, preset_names)
from richardsfv.constitutive import UnconfinedParams, VgmParams
from richardsfv.mesh import Mesh2D, build_mesh


def test_dam_tensor_entries():
    # closed form at theta = pi/6, K0 = 0.864 (mpmath cross-check):
    # Kxx = 0.864*3.25 = 2.808, Kxz = 9*0.864*sin*cos = 3.3671067699,
    # Kzz = 0.864*7.75 = 6.696
    K = dam_conductivity()
    assert K[0, 0] == pytest.approx(2.808, rel=1e-12)
    assert K[0, 1] == pytest.approx(3.3671067699138975, rel=1e-12)
    assert K[1, 0] == K[0, 1]
    assert K[1, 1] == pytest.approx(6.696, rel=1e-12)


def test_dam_tensor_eigenvalues():
    ev = np.linalg.eigvalsh(dam_conductivity())
    assert ev[0] == pytest.approx(0.864, rel=1e-12)
    assert ev[1] == pytest.approx(8.64, rel=1e-12)


def test_dam_right_boundary_split():
    spec = build_dam("unconfined", "400")
    mesh = spec.mesh
    wet = [f for f in mesh.boundary_faces if mesh.face_tag[f] == "right_wet"]
    dry = [f for f in mesh.boundary_faces if mesh.face_tag[f] == "right_dry"]
    assert len(wet) == 4  # z in (0, 2) at 0.5 m spacing
    assert len(dry) == 16
    assert all(mesh.face_midpoint[f, 1] <= 2.0 for f in wet)
    assert all(mesh.face_midpoint[f, 1] > 2.0 for f in dry)
    assert spec.dirichlet == {"left": 10.0, "right_wet": 2.0}
    # everything else impermeable
    assert "top" not in spec.dirichlet and "bottom" not in spec.dirichlet


def test_dam_models():
    s1 = build_dam("unconfined", "cartesian:4x4")
    assert isinstance(s1.media[0].model, UnconfinedParams)
    s2 = build_dam("vgm", "cartesian:4x4")
    assert isinstance(s2.media[0].model, VgmParams)
    assert s2.media[0].model.n == 1.2
    with pytest.raises(ValueError):
        build_dam("brooks-corey", "cartesian:4x4")


COARSE = "mesh too coarse: no right-boundary face lies below z = 2.0 m"


def test_dam_rejects_too_coarse_mesh():
    # a 2x2 grid has no right-boundary face below z = 2 m
    with pytest.raises(ValueError) as err:
        build_dam("unconfined", "cartesian:2x2")
    assert str(err.value) == COARSE


def test_layered_slab_rejects_too_coarse_mesh():
    # same boundary split as the dam, so the same message, not a missing
    # 'right_wet' tag from the spec check
    with pytest.raises(ValueError) as err:
        build_layered_slab("cartesian:2x2")
    assert str(err.value) == COARSE


@pytest.mark.parametrize("build", [partial(build_dam, "vgm"),
                                   build_layered_slab])
def test_mesh_without_right_tag_is_named(build):
    # one square tagged 'left' and 'side': the missing tag is the fault,
    # not the coarseness
    mesh = build_mesh([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
                      [(0, 1, 2, 3)],
                      {(0, 3): "left", (0, 1): "side", (1, 2): "side",
                       (2, 3): "side"})
    with pytest.raises(ValueError,
                       match=r"^mesh has no boundary face tagged 'right'$"):
        build(mesh=mesh)


def test_dam_mesh_choices():
    assert dam_mesh("400").n_cells == 400
    assert dam_mesh("6400").n_cells == 6400
    assert dam_mesh("5500").n_cells == 5476  # 74x74, nominal 5500
    assert dam_mesh("1900").n_cells == 1922  # 31x31 triangulated
    assert dam_mesh("triangular:4x5").n_cells == 40
    with pytest.raises(ValueError):
        dam_mesh("hexagonal:3x3")
    with pytest.raises(ValueError):
        dam_mesh("nonsense")


def test_verification_linear_saturation_guard():
    mesh = dam_mesh("cartesian:4x4")
    with pytest.raises(ValueError, match="unsaturated"):
        build_verification_linear(mesh, np.eye(2), a=0.0, b=0.0, c=-100.0)


def test_verification_dirichlet_covers_all_tags():
    mesh = dam_mesh("cartesian:3x3")
    spec, exact = build_verification_linear(mesh)
    assert set(spec.dirichlet) == set(mesh.tag_names())
    assert exact(1.0, 2.0) == pytest.approx(1.0 * 1.0 + 2.0 * 2.0 + 50.0)


def test_layered_slab_structure():
    spec = build_layered_slab("cartesian:6x6")
    assert len(spec.media) == 3
    ks = [m.conductivity for m in spec.media]
    for K, k in zip(ks, (4.76, 0.011, 4.76)):
        assert K[0, 0] == pytest.approx(k)
        assert K[1, 1] == pytest.approx(0.1 * k)
        assert K[0, 1] == 0.0
    # three equal-thickness layers on a 6-row grid: 12 cells each
    counts = np.bincount(spec.cell_medium)
    assert list(counts) == [12, 12, 12]
    zc = spec.mesh.cell_centroid[:, 1]
    assert (spec.cell_medium[zc < 10.0 / 3.0] == 0).all()
    assert (spec.cell_medium[zc > 20.0 / 3.0] == 2).all()


def test_preset_dispatch():
    for name in preset_names():
        spec = build_preset(name, "cartesian:3x3")
        assert spec.mesh.n_cells == 9
    with pytest.raises(ValueError):
        build_preset("dam-seepage")


@pytest.mark.parametrize("name", ["dam-unconfined", "dam-vgm",
                                  "layered-slab"])
def test_preset_passes_kr_mode(name):
    assert build_preset(name, "cartesian:3x3", "upwind").kr_mode == "upwind"


def test_unknown_preset_names_the_presets():
    with pytest.raises(ValueError, match=r"^unknown preset 'x' \(available: "
                       r"dam-unconfined, dam-vgm, layered-slab, "
                       r"verify-linear\)$"):
        build_preset("x")


def test_dam_mesh_read_only():
    # the retagged face_tag reaches the mesh through dataclasses.replace
    mesh = build_dam("unconfined", "cartesian:4x4").mesh
    for fld in fields(Mesh2D):
        assert not getattr(mesh, fld.name).flags.writeable, fld.name
