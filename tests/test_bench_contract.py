"""What the benchmark harness in perfbench/ reads from the package.

The harness is not part of this suite, so these tests pin the names,
call paths and report fields it relies on: a change that breaks one of
them fails here instead of only when the benchmark runs.
"""

import importlib
import importlib.util
from dataclasses import fields
from pathlib import Path

import numpy as np
import scipy.sparse as sps

import pytest

import richardsfv
from richardsfv import _kernels, _mpfa, build_dam, linalg
from richardsfv.continuation import ContinuationConfig, run_continuation
from richardsfv.discretization import Discretization
from richardsfv.mesh import Mesh2D, build_mesh, gen_cartesian, gen_triangular
from richardsfv.solvers import SolverConfig

# loaded from its file, so that perfbench/ need not be on sys.path
_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")


def test_every_trace_target_resolves():
    for name, module, cls, attr in tracing.TARGETS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        # the tracer swaps the attribute in the owner's own namespace
        assert callable(owner.__dict__.get(attr)), name


def test_backend_name_exists():
    assert isinstance(richardsfv.BACKEND, str)


def test_linear_report_fields():
    A = sps.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    b = np.array([1.0, 2.0])
    result = linalg.solve(A, b)
    info = tracing._linalg_info((A, b), {}, result)
    assert set(info) == {"method", "iterations", "breakdown",
                         "rel_residual", "bytes"}
    assert info["method"] == "splu"
    assert info["iterations"] == 0
    assert info["breakdown"] is False
    assert info["rel_residual"] < 1e-15


def test_residual_calls_face_system_through_module(monkeypatch):
    spec = build_dam("unconfined", "cartesian:3x3")
    disc = Discretization(spec, "tpfa")
    calls = []
    original = _kernels.face_system

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(_kernels, "face_system", spy)
    disc.residual(np.full(spec.mesh.n_cells, 6.0), 1.0, "linear")
    assert len(calls) == 1


def test_discretization_calls_mpfa_stencils_through_module(monkeypatch):
    # the tracer times the stencil build by swapping the module attribute;
    # a name bound at import time would bypass it and stencil_s read 0
    spec = build_dam("unconfined", "cartesian:3x3")
    calls = []
    original = _mpfa.mpfa_o_stencils

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(_mpfa, "mpfa_o_stencils", spy)
    Discretization(spec, "mpfa-o")
    assert len(calls) == 1
    Discretization(spec, "tpfa")
    assert len(calls) == 1


@pytest.mark.parametrize("scheme", ["tpfa", "mpfa-o"])
def test_worker_reads_disc_and_runs_continuation(scheme):
    # worker.py reports len(disc.col) as stencil_entries and the mesh
    # counts from disc.spec.mesh, and runs the solve as
    # run_continuation(disc, solver_cfg, cont_cfg)
    spec = build_dam("vgm", "triangular:4x4")
    disc = Discretization(spec, scheme)
    assert disc.spec.mesh is spec.mesh
    assert len(disc.col) == disc.ptr[-1] == len(disc.w)
    assert len(disc.ptr) == len(disc.face_ids) + 1
    _, report = run_continuation(disc, SolverConfig(method="newton"),
                                 ContinuationConfig(kind="power"))
    assert report.success and report.total_iterations > 0


@pytest.mark.parametrize("grid, gen", [("cartesian", gen_cartesian),
                                       ("triangular", gen_triangular)])
def test_workload_grids_are_the_generators(grid, gen):
    # workloads.py promises that seed 0 keeps the generators' numbering
    mi = _load("workloads").generate(grid, 7, 5)
    got = build_mesh(mi.vertices, mi.cells, mi.tag_edges)
    want = gen(7, 5, 10.0, 10.0)
    for fld in fields(Mesh2D):
        assert np.array_equal(getattr(got, fld.name),
                              getattr(want, fld.name)), fld.name
