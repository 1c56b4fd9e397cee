"""Tests of the benchmark's own logic: span arithmetic, the percentile
rule, input renumbering, the correctness check and the metric names.

    python3 -m pytest perfbench/tests
"""

import importlib
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import checks
import stats
import tracing
import worker
import workloads
from richardsfv import benchmarks, build_mesh, gen_cartesian, gen_triangular
from workloads import WORKLOADS, Workload, generate, renumber

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(name, start, end, parent=None):
    return [name, start, end, parent, "r0"]


def test_self_time_subtracts_direct_children_only():
    spans = [span("root", 0.0, 10.0),
             span("a", 1.0, 4.0, 0),
             span("a.x", 1.5, 2.5, 1),
             span("b", 5.0, 9.0, 0),
             span("other", 20.0, 21.0)]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0,
                                                       1.0])
    assert tracing.phases(spans) == ["root", "root", "root", "root",
                                     "other"]
    table = tracing.span_table(spans)
    assert table["root"][:3] == [1, 10.0, pytest.approx(3.0)]


def test_layer_metrics_count_solve_phase_only():
    solve = tracing.SOLVE
    spans = [span(tracing.SETUP, 0.0, 1.0),
             span("constitutive.cell_curves", 0.1, 0.2, 0),
             span(solve, 1.0, 5.0),
             span("discretization.residual", 1.0, 2.0, 2),
             span("constitutive.cell_curves", 1.2, 1.5, 3)]
    facts = {"cells": 4, "faces": 4, "stencil_entries": 8,
             "steps": [(True, 1), (False, 3), (True, 2)],
             "output_bytes": 10}
    m = tracing.layer_metrics(spans, [None] * len(spans), facts)
    assert m["constitutive.cell_curves_calls"] == 1
    assert m["constitutive.cell_curves_s"] == pytest.approx(0.3)
    assert m["discretization.residual_self_s"] == pytest.approx(0.7)
    assert m["continuation.self_s"] == pytest.approx(3.0)
    assert m["continuation.steps_failed"] == 1
    assert m["continuation.useful_iter_ratio"] == pytest.approx(0.5)
    assert m["solvers.residuals_per_iter"] == pytest.approx(1 / 6)


@pytest.mark.parametrize("n, p", [(1, None), (19, None), (20, 50.0),
                                  (99, 50.0), (100, 90.0), (999, 90.0),
                                  (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert stats.tail_percentile(n) == p


def test_summarize_reports_median_and_tail():
    s = stats.summarize(list(range(100, 0, -1)))
    assert (s["median"], s["n"], s["tail_p"], s["tail"]) == \
        (50.5, 100, 90.0, 90)
    assert sum(v > s["tail"] for v in range(1, 101)) == 10
    assert stats.summarize([3.0, 1.0])["tail"] is None
    for n in (20, 100, 1000, 10000):
        s = stats.summarize(range(n))
        assert sum(v > s["tail"] for v in range(n)) == 10


@pytest.mark.parametrize("grid, gen", [("cartesian", gen_cartesian),
                                       ("triangular", gen_triangular)])
def test_seed_zero_matches_repo_generators(grid, gen):
    inp = renumber(generate(grid, 5, 4), 0)
    ours = build_mesh(inp.vertices, inp.cells, inp.tag_edges)
    ref = gen(5, 4, 10.0, 10.0)
    for attr in ("vertices", "cell_vert", "cell_area", "face_cells",
                 "face_normal", "face_tag"):
        assert np.array_equal(getattr(ours, attr), getattr(ref, attr))


@pytest.mark.parametrize("grid", ["cartesian", "triangular"])
def test_renumbering_keeps_geometry_and_tags(grid):
    plain = generate(grid, 6, 5)
    base = build_mesh(plain.vertices, plain.cells, plain.tag_edges)
    inp = renumber(plain, 7)
    assert inp.cells != plain.cells
    mesh = build_mesh(inp.vertices, inp.cells, inp.tag_edges)
    assert np.array_equal(np.sort(mesh.cell_area), np.sort(base.cell_area))
    assert Counter(mesh.face_tag[mesh.boundary_faces]) == \
        Counter(base.face_tag[base.boundary_faces])
    # the right boundary split, which follows coordinates, survives too
    wet = benchmarks.build_dam("vgm", mesh).mesh.face_tag
    assert Counter(wet) == Counter(benchmarks.build_dam("vgm", base).mesh
                                   .face_tag)


def test_renumbering_moves_ids_within_blocks():
    perm = workloads._local_permutation(np.random.default_rng(3), 1000)
    assert sorted(perm) == list(range(1000))
    assert np.array_equal(perm // workloads.BLOCK,
                          np.arange(1000) // workloads.BLOCK)
    assert not np.array_equal(perm, np.arange(1000))


@pytest.fixture(scope="module")
def small_rep(tmp_path_factory):
    small = Workload("cartesian", 8, 8, "tpfa", "newton", "power")
    cfgs = (worker.SolverConfig(method="newton", nit_max=80),
            worker.ContinuationConfig(kind="power"))
    tracer = tracing.Tracer("test")
    with tracer.installed():
        rep = worker.run_rep(small, generate("cartesian", 8, 8), cfgs,
                             tmp_path_factory.mktemp("out"), tracer)
    return rep, cfgs, tracer


def test_check_accepts_solution_and_rejects_perturbation(small_rep):
    rep, (cfg, cont), _ = small_rep
    assert rep.report.success
    assert checks.check_solution(rep.disc, rep.h, rep.report, cfg,
                                 cont.kind) == []
    assert checks.rejects_perturbation(rep.disc, rep.h, rep.report, cfg,
                                       cont.kind)
    nan = rep.h.copy()
    nan[0] = np.nan
    assert checks.check_solution(rep.disc, nan, rep.report, cfg, cont.kind)


def test_tracer_nests_spans_and_restores_functions(small_rep):
    rep, _, tracer = small_rep
    names = [s[0] for s in tracer.spans]
    assert {"mesh.build_mesh", "discretization.init",
            "discretization.tpfa_transmissibilities",
            "discretization.jacobian", "discretization.residual",
            "constitutive.cell_curves", "kernels.face_system",
            "linalg.solve", "solvers.newton_step", "solvers.solve_nonlinear",
            "output.write_report_csv", "output.write_convergence_csv",
            "output.write_vtk"} <= set(names)
    i = names.index("linalg.solve")
    assert tracer.spans[tracer.spans[i][3]][0] == "solvers.newton_step"
    assert tracer.info[i]["method"] == "dense"
    for _, module, cls, attr in tracing.TARGETS:
        owner = importlib.import_module(module)
        fn = getattr(getattr(owner, cls) if cls else owner, attr)
        assert not hasattr(fn, "__wrapped__")


def test_metric_names_match_benchmark_json(small_rep):
    rep, _, tracer = small_rep
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)

    layers = tracing.layer_metrics(tracer.spans, tracer.info,
                                   worker.facts(rep))
    assert [m["name"] for m in spec["per_layer"]] == \
        list(layers) + ["trace.overhead_s"]

    runner = type("R", (), {"attempted": 2, "failed": 0})
    sample = worker.Sample(rep.setup_s, rep.solve_s, rep.total_s,
                           worker.facts(rep))
    e2e = worker.end_to_end(runner, [sample], [rep.setup_s])
    assert e2e["total_iters"] == rep.report.total_iterations
    assert [m["name"] for m in spec["end_to_end"]] == \
        list(e2e) + ["peak_rss_mb"]
    for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        assert NAME.fullmatch(m["name"]), m["name"]
