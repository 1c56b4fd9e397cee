"""CLI: solve / sweep end-to-end, exit codes, determinism."""

from dataclasses import fields
from pathlib import Path

import os
import shutil
import subprocess

import pytest

from richardsfv.benchmarks import dam_mesh
from richardsfv.cli import _read_config, main
from richardsfv.cli import OPTIONS, SECTIONS, _build_problem
from richardsfv.constitutive import KINDS
from richardsfv.discretization import SCHEMES
from richardsfv.solvers import METHODS
from richardsfv.mesh import gen_cartesian, write_mesh


def run_cli(*argv):
    return main(list(argv))


# the README's solve example; MPFA-O on the slab's three anisotropic
# media (interaction regions across media), on the linear field whose
# Dirichlet heads are a callable, and on the MPFA-O Newton benchmark dam
END_TO_END = [
    ("dam-unconfined", "cartesian:20x20", "--scheme", "tpfa",
     "--solver", "mixed"),
    ("layered-slab", "triangular:12x12", "--scheme", "mpfa-o"),
    ("verify-linear", "triangular:12x12", "--scheme", "mpfa-o"),
    ("dam-vgm", "1900", "--scheme", "mpfa-o", "--solver", "newton",
     "--continuation", "power"),
]


def test_solve_end_to_end(tmp_path, capsys):
    for k, (preset, mesh, *argv) in enumerate(END_TO_END):
        out = tmp_path / f"run{k}"
        rc = run_cli("solve", "--preset", preset, "--mesh", mesh, *argv,
                     "--out", str(out))
        assert rc == 0, preset
        assert (out / "report.csv").exists()
        assert (out / "solution.vtk").exists()
        traces = sorted(p.name for p in out.glob("trace_step*.csv"))
        assert traces == ["trace_step000.csv", "trace_step001.csv"]
        assert ": ok," in capsys.readouterr().out


def test_solve_deterministic_outputs(tmp_path):
    blobs = []
    for i in range(2):
        out = tmp_path / f"run{i}"
        rc = run_cli("solve", "--preset", "dam-unconfined",
                     "--mesh", "cartesian:10x10", "--solver", "mixed",
                     "--continuation", "power", "--out", str(out))
        assert rc == 0
        blob = b"".join(sorted(p.read_bytes()
                               for p in out.glob("*.csv")))
        blob += (out / "solution.vtk").read_bytes()
        blobs.append(blob)
    assert blobs[0] == blobs[1]


def test_rerun_leaves_only_its_own_traces(tmp_path):
    # with plain Picard the dam-vgm run fails at the VGM stall after 27
    # attempts; at gamma = 0.5 it passes in 2, and the other 25 traces
    # go, while files of other names stay
    out = tmp_path / "run"
    argv = ("solve", "--preset", "dam-vgm", "--mesh", "triangular:16x16",
            "--solver", "mixed", "--out", str(out))
    plain = tmp_path / "plain.ini"
    plain.write_text("[solver]\nanderson = 0\n")
    cfg = tmp_path / "gamma05.ini"
    cfg.write_text("[solver]\nanderson = 0\n[line_search]\ngamma = 0.5\n")
    others = out / "trace_step1000.csv", out / "trace_step01.csv"
    counts = []
    for extra, rc in ((("--config", str(plain)), 2),
                      (("--config", str(cfg)), 0)):
        assert run_cli(*argv, *extra) == rc
        rows = len((out / "report.csv").read_text().splitlines()) - 1
        traces = out.glob("trace_step[0-9][0-9][0-9].csv")
        assert sorted(p.name for p in traces) == \
            [f"trace_step{i:03d}.csv" for i in range(rows)]
        counts.append(rows)
        for p in others:
            p.write_text("other\n")
    assert counts == [27, 2]
    assert all(p.read_text() == "other\n" for p in others)
    # what the rerun left is, byte for byte, the same run in a fresh
    # directory
    fresh = tmp_path / "fresh"
    assert run_cli(*argv[:-1], str(fresh), "--config", str(cfg)) == 0
    names = sorted(p.name for p in fresh.iterdir())
    assert names == sorted({p.name for p in out.iterdir()}
                           - {p.name for p in others})
    for name in names:
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


def test_missing_config_exit_1(tmp_path, capsys):
    rc = run_cli("solve", "--config", str(tmp_path / "absent.ini"))
    assert rc == 1
    assert "absent.ini" in capsys.readouterr().err


def test_config_directory_exit_1(tmp_path, capsys):
    rc = run_cli("solve", "--config", str(tmp_path),
                 "--out", str(tmp_path / "o"))
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                    reason="root reads a file without read permission")
def test_config_unreadable_exit_1(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[problem]\nmesh = cartesian:3x3\n")
    cfg.chmod(0)
    rc = run_cli("solve", "--config", str(cfg),
                 "--out", str(tmp_path / "o"))
    assert rc == 1
    assert "run.ini" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("slash", ["", "/"])
def test_output_dir_printed_with_one_slash(tmp_path, monkeypatch, capsys,
                                           slash):
    monkeypatch.chdir(tmp_path)
    mesh = ("--mesh", "cartesian:3x3")
    assert run_cli("solve", *mesh, "--out", "out" + slash) == 0
    assert capsys.readouterr().out.endswith("\noutputs written to out/\n")
    assert run_cli("sweep", *mesh, "--schemes", "tpfa", "--solvers",
                   "newton", "--kinds", "linear", "--out", "out" + slash) == 0
    assert capsys.readouterr().out.endswith(
        "\ntable written to out/sweep.csv\n")


def test_unsupported_scheme_exit_1(capsys):
    rc = run_cli("solve", "--preset", "dam-unconfined", "--scheme", "ntpfa")
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: unknown scheme 'ntpfa' (supported: tpfa, mpfa-o)\n"


def test_unknown_preset_exit_1(capsys):
    rc = run_cli("solve", "--preset", "dam-seepage")
    assert rc == 1
    assert "dam-unconfined" in capsys.readouterr().err


def test_bad_solver_exit_1(capsys):
    rc = run_cli("solve", "--preset", "dam-unconfined", "--solver", "bfgs")
    assert rc == 1
    assert "'bfgs'" in capsys.readouterr().err


def test_config_file_drives_solve(tmp_path):
    cfg = tmp_path / "run.ini"
    out = tmp_path / "out"
    cfg.write_text(
        "[problem]\n"
        "preset = dam-unconfined\n"
        "mesh = cartesian:10x10\n"
        "scheme = tpfa\n"
        "[solver]\n"
        "method = mixed\n"
        "nit_pic = 5\n"
        "eps_abs = 1e-7\n"
        "[continuation]\n"
        "kind = power\n"
        f"[output]\ndir = {out}\n")
    rc = run_cli("solve", "--config", str(cfg))
    assert rc == 0
    assert (out / "report.csv").exists()


def test_config_unknown_key_exit_1(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[solver]\nmethod = mixed\nwarp_factor = 9\n")
    rc = run_cli("solve", "--preset", "dam-unconfined",
                 "--config", str(cfg))
    assert rc == 1
    assert "warp_factor" in capsys.readouterr().err


@pytest.mark.parametrize("ini, expect", [
    pytest.param("[solver]\nwarmup = 5\n", "[warmup]",
                 id="warmup = 5-[warmup]"),
    pytest.param("[solver]\nline_search = 3\n", "[line_search]",
                 id="line_search = 3-[line_search]"),
    pytest.param("[solver]\nlinear_tol = 1e-9\n", "unknown key",
                 id="linear_tol = 1e-9-unknown key"),
    pytest.param("[solver]\npure_newton = true\n", "unknown key",
                 id="pure_newton = true-unknown key"),
    pytest.param("[problem]\nkr_mode = upwind\n", "unknown key 'kr_mode'",
                 id="problem kr_mode"),
    pytest.param("[linesearch]\nalpha = 0.5\n", "unknown section [linesearch]",
                 id="linesearch section"),
    pytest.param("[output]\ndirectory = x\n", "unknown key 'directory'",
                 id="output directory"),
    pytest.param("[sweep]\nscheme = tpfa\n", "unknown key 'scheme'",
                 id="sweep scheme"),
    pytest.param("[continuation]\nincrease = 3\n",
                 "error: config [continuation] has unknown key 'increase'\n",
                 id="continuation increase"),
    pytest.param("[line_search]\nalpha = 0.5\n",
                 "error: config [line_search] has unknown key 'alpha'\n",
                 id="line_search alpha"),
    pytest.param("[solver]\neps_div = 1e10\n",
                 "error: config [solver] has unknown key 'eps_div'\n",
                 id="solver eps_div"),
    pytest.param("[continuation]\ndq_init = 0.5\n",
                 "error: config [continuation] has unknown key 'dq_init'\n",
                 id="continuation dq_init"),
    pytest.param("[continuation]\ndq_min = 0.3\n",
                 "error: config [continuation] has unknown key 'dq_min'\n",
                 id="continuation dq_min"),
    pytest.param("[continuation]\nmax_steps = 5\n",
                 "error: config [continuation] has unknown key 'max_steps'\n",
                 id="continuation max_steps"),
])
def test_config_rejected_solver_key_exit_1(tmp_path, capsys, ini, expect):
    # nested configs have sections of their own; removed fields,
    # properties, misspelt sections and keys outside a section's list
    # are refused rather than ignored
    cfg = tmp_path / "bad.ini"
    cfg.write_text(ini)
    rc = run_cli("solve", "--preset", "dam-unconfined",
                 "--mesh", "cartesian:3x3", "--config", str(cfg),
                 "--out", str(tmp_path / "o"))
    assert rc == 1
    assert expect in capsys.readouterr().err


def test_max_backtracks_is_an_unknown_key(tmp_path, capsys):
    # the Armijo trials stop at the fixed floor OMEGA_MIN; the removed
    # count is refused like any other unknown key
    cfg = tmp_path / "old.ini"
    cfg.write_text("[line_search]\nmax_backtracks = 20\n")
    rc = run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: config [line_search] has unknown key 'max_backtracks'\n"
    assert not (tmp_path / "o").exists()


def test_gamma_half_passes_the_vgm_stall(tmp_path):
    # the README's plain-Picard dam-vgm setting: at the default gamma
    # this run stalls at q = 0.80224609375 after 401 iterations (exit 2);
    # with Anderson mixing at its default depth gamma = 0.5 passes too
    for solver, last in (("[solver]\nanderson = 0\n", "8"), ("", "9")):
        cfg = tmp_path / "gamma.ini"
        cfg.write_text(solver + "[line_search]\ngamma = 0.5\n")
        out = tmp_path / f"o{last}"
        rc = run_cli("solve", "--preset", "dam-vgm",
                     "--mesh", "triangular:16x16", "--solver", "mixed",
                     "--config", str(cfg), "--out", str(out))
        assert rc == 0
        rows = [line.split(",")[:4] for line in
                (out / "report.csv").read_text().splitlines()[1:]]
        assert rows == [["0", "0.0", "converged", "1"],
                        ["1", "1.0", "converged", last]]


def test_readme_config_example_accepted(tmp_path):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    cfg = tmp_path / "readme.ini"
    cfg.write_text(readme.read_text().split("```ini\n")[1].split("```")[0])
    resolved = _read_config(str(cfg))
    assert resolved["solver"].method == "newton"
    assert resolved["continuation"].kind == "power"


def test_config_bad_value_exit_1(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[solver]\nnit_max = many\n")
    rc = run_cli("solve", "--preset", "dam-unconfined",
                 "--config", str(cfg))
    assert rc == 1
    assert "nit_max" in capsys.readouterr().err
    # configparser's own message spans three lines
    cfg.write_text("mesh = 400\n")
    rc = run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: cannot parse config {cfg}: line 1: File contains no "
        "section headers.\n")
    assert not (tmp_path / "o").exists()


def test_solver_failure_exit_2(tmp_path):
    cfg = tmp_path / "hard.ini"
    cfg.write_text(
        "[solver]\nmethod = newton\nnit_max = 1\n"
        "eps_rel = 1e-14\neps_abs = 1e-14\n")
    rc = run_cli("solve", "--preset", "dam-unconfined",
                 "--mesh", "cartesian:10x10", "--config", str(cfg),
                 "--out", str(tmp_path / "o"))
    assert rc == 2


def test_mesh_file_input(tmp_path):
    mesh = gen_cartesian(10, 10, 10.0, 10.0)
    mpath = tmp_path / "dam.msh"
    write_mesh(mesh, mpath)
    rc = run_cli("solve", "--preset", "dam-unconfined",
                 "--mesh", str(mpath), "--out", str(tmp_path / "o"))
    assert rc == 0
    assert (tmp_path / "o" / "report.csv").exists()


def test_mesh_help_reads_the_grid_tables(capsys):
    assert run_cli("solve", "--help") == 0
    text = " ".join(capsys.readouterr().out.split())
    assert ("--mesh MESH mesh: 'cartesian:NXxNZ', 'triangular:NXxNZ', a "
            "named dam grid (400/6400/5500/1900), or a mesh file path") \
        in text


def test_malformed_mesh_file_exit_1(tmp_path, capsys):
    mpath = tmp_path / "bare.msh"
    mpath.write_text("MESH2D 3 1\nv 0 0\nv 1 0\nv 0 1\nc\n")
    rc = run_cli("solve", "--preset", "dam-unconfined",
                 "--mesh", str(mpath), "--out", str(tmp_path / "o"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {mpath}:5: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("name, n_cells", [("400", 400),
                                           ("cartesian:5x5", 25)])
def test_grid_name_not_shadowed_by_a_directory(tmp_path, monkeypatch, capsys,
                                               name, n_cells):
    monkeypatch.chdir(tmp_path)
    os.mkdir(name)
    assert run_cli("solve", "--preset", "dam-unconfined", "--mesh", name) == 0
    assert f"CELLS {n_cells} " in Path("out", "solution.vtk").read_text()
    capsys.readouterr()
    # ./NAME reaches the directory, which is no mesh file
    assert run_cli("solve", "--preset", "dam-unconfined",
                   "--mesh", os.path.join(".", name)) == 1
    assert capsys.readouterr().err.startswith(
        "error: cannot read mesh file: ")


# two cells meeting along two consecutive faces: vertex 3 has degree 2,
# where MPFA-O's interaction region is singular
DEG2_MESH = """MESH2D 7 2
v 0.0 0.0
v 2.0 0.0
v 2.0 1.0
v 1.0 1.0
v 0.0 1.0
v 2.0 2.0
v 0.0 2.0
c 5 0 1 2 3 4
c 5 4 3 2 5 6
"""


@pytest.mark.parametrize("argv", [("solve", "--scheme", "mpfa-o"),
                                  ("sweep",)])
def test_mpfa_refusal_is_an_error_line(tmp_path, capsys, caplog, argv):
    mpath = tmp_path / "deg2.msh"
    mpath.write_text(DEG2_MESH)
    out = tmp_path / "o"
    rc = run_cli(*argv, "--preset", "verify-linear", "--mesh", str(mpath),
                 "--out", str(out))
    err = capsys.readouterr().err
    assert "Traceback" not in err
    reason = "vertex 3: singular interaction-region system"
    if argv[0] == "solve":
        assert rc == 1
        assert err == f"error: {reason}\n"
        assert not out.exists()
        return
    # a sweep goes on: the refusal is logged once, and each of the
    # scheme's entries is a row; the TPFA rows are those of a TPFA-only
    # sweep
    assert rc == 0
    assert [r.getMessage() for r in caplog.records] == \
        [f"scheme mpfa-o refused: {reason}"]
    rows = [line.split(",") for line in
            (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [r[:4] + r[5:] for r in rows] == [
        [scheme, solver, kind, *counts]
        for scheme, counts in (("tpfa", ["ok", "1", "0", "1", "1.0"]),
                               ("mpfa-o", ["refused", "0", "0", "0", "0.0"]))
        for solver in METHODS for kind in KINDS]
    assert all(r[4] == "0.000" for r in rows[6:])


def test_non_finite_mesh_file_exit_1(tmp_path, capsys):
    mpath = tmp_path / "nan.msh"
    mpath.write_text("MESH2D 3 1\nv 0 0\nv nan 0\nv 0 1\nc 3 0 1 2\n")
    rc = run_cli("solve", "--preset", "verify-linear", "--mesh", str(mpath),
                 "--out", str(tmp_path / "o"))
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: vertex 1 has a non-finite coordinate\n"


def test_nan_config_value_exit_1(tmp_path, capsys):
    cfg = tmp_path / "nan.ini"
    cfg.write_text("[solver]\neps_abs = nan\n")
    rc = run_cli("solve", "--preset", "dam-unconfined",
                 "--mesh", "cartesian:3x3", "--config", str(cfg),
                 "--out", str(tmp_path / "o"))
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: config [solver]: eps_abs must be positive and finite, " \
        "got nan\n"


def test_inf_config_value_exit_1(tmp_path, capsys):
    # with eps_abs = inf every level would "converge" at iteration 0
    cfg = tmp_path / "inf.ini"
    cfg.write_text("[solver]\neps_abs = inf\n")
    rc = run_cli("solve", "--preset", "dam-vgm", "--mesh", "triangular:16x16",
                 "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: config [solver]: eps_abs must be positive and finite, " \
        "got inf\n"
    assert not (tmp_path / "o").exists()


def test_settable_values_by_section():
    # the step rules and the run's limits are module constants; a new
    # config field shows up here as a diff
    keys = {section: [f.name for f in fields(cfg)
                      if isinstance(getattr(cfg, f.name), (int, float, str))]
            for section, cfg in SECTIONS.items()
            if not isinstance(cfg, dict)}
    assert keys == {
        "solver": ["method", "nit_pic", "eps_rel", "eps_abs", "nit_max",
                   "anderson"],
        "line_search": ["enabled_after", "gamma"],
        "warmup": ["nit_nls", "omega_fixed"],
        "continuation": ["kind"],
    }
    assert sum(map(len, keys.values())) == 11
    assert [f.name for f in fields(SECTIONS["solver"])
            if f.name not in keys["solver"]] == ["line_search", "warmup"]


@pytest.mark.parametrize("value, err", [
    ("-1", "error: config [solver]: anderson must be an integer >= 0, "
           "got -1\n"),
    ("1.5", "error: config [solver] anderson = '1.5' is not a valid int\n"),
])
def test_bad_anderson_exit_1(tmp_path, capsys, value, err):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[solver]\nanderson = {value}\n")
    rc = run_cli("solve", "--preset", "dam-vgm", "--mesh", "triangular:16x16",
                 "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert rc == 1
    assert capsys.readouterr().err == err
    assert not (tmp_path / "o").exists()


def test_default_passes_the_vgm_stall(tmp_path):
    # Anderson-mixed Picard steps: 10 iterations in all, where plain
    # Picard fails after 27 attempts and 401 iterations
    out = tmp_path / "o"
    rc = run_cli("solve", "--preset", "dam-vgm", "--mesh", "triangular:16x16",
                 "--solver", "mixed", "--out", str(out))
    assert rc == 0
    rows = [line.split(",")[:4]
            for line in (out / "report.csv").read_text().splitlines()[1:]]
    assert rows == [["0", "0.0", "converged", "1"],
                    ["1", "1.0", "converged", "9"]]


def test_unknown_mode_names_the_modes(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[problem]\nmode = foo\n")
    rc = run_cli("solve", "--mesh", "cartesian:3x3", "--config", str(cfg),
                 "--out", str(tmp_path / "o"))
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: unknown kr_mode 'foo' (supported: central, upwind)\n"
    assert not (tmp_path / "o").exists()


def test_name_lists_read_the_tables(capsys):
    assert run_cli("solve", "--help") == 0
    text = " ".join(capsys.readouterr().out.split())
    for line in ("--scheme SCHEME flux scheme: tpfa or mpfa-o",
                 "--solver SOLVER nonlinear method: newton, picard or mixed",
                 "--continuation CONTINUATION continuation kind: linear or "
                 "power"):
        assert line in text
    assert SECTIONS["sweep"] == {"schemes": ",".join(SCHEMES),
                                 "solvers": ",".join(METHODS),
                                 "kinds": ",".join(KINDS)}


def test_sweep_full_matrix(tmp_path, capsys):
    out = tmp_path / "sw"
    rc = run_cli("sweep", "--preset", "dam-unconfined",
                 "--mesh", "cartesian:5x5", "--out", str(out))
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 13  # header + 2 schemes * 3 solvers * 2 kinds
    cap = capsys.readouterr()
    assert "12 configurations" in cap.out
    assert "tot.iter." in cap.out


def test_sweep_subset(tmp_path):
    out = tmp_path / "sw"
    rc = run_cli("sweep", "--preset", "dam-unconfined",
                 "--mesh", "cartesian:5x5", "--schemes", "tpfa",
                 "--solvers", "newton", "--kinds", "linear",
                 "--out", str(out))
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("tpfa,newton,linear,ok,")


def test_sweep_bad_kind_exit_1(capsys):
    rc = run_cli("sweep", "--preset", "dam-unconfined",
                 "--kinds", "cubic")
    assert rc == 1
    assert "'cubic'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("solve", "--solver", "bfgs"),
                                  ("solve", "--continuation", "cubic"),
                                  ("sweep", "--solvers", "newton,bfgs"),
                                  ("sweep", "--kinds", "cubic"),
                                  ("solve", "--scheme", "mpfa"),
                                  ("sweep", "--schemes", "tpfa,mpfa")])
def test_bad_choice_fails_before_output_dir(tmp_path, argv):
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert not out.exists()


def test_no_command_shows_help(capsys):
    assert run_cli() == 1
    assert "solve" in capsys.readouterr().out


def test_help_exit_0():
    assert run_cli("--help") == 0


def test_console_script_installed(tmp_path):
    # the installed entry point, as against main(): its help, an MPFA-O
    # solve (the installed package's _mpfa), a failing continuation and
    # a config error, each with its exit status
    exe = shutil.which("richardsfv")
    if exe is None:
        pytest.skip("console script not on PATH")

    def run(*argv):
        return subprocess.run([exe, *argv], capture_output=True, text=True,
                              cwd=tmp_path)

    out = run("--help")
    assert out.returncode == 0
    assert "solve" in out.stdout
    out = run("solve", "--preset", "verify-linear",
              "--mesh", "triangular:12x12", "--scheme", "mpfa-o",
              "--out", "mpfa")
    assert out.returncode == 0, out.stderr
    for name in ("report.csv", "trace_step000.csv", "solution.vtk"):
        assert (tmp_path / "mpfa" / name).exists(), name
    (tmp_path / "hard.ini").write_text(
        "[solver]\nmethod = newton\nnit_max = 1\n"
        "eps_rel = 1e-14\neps_abs = 1e-14\n")
    out = run("solve", "--preset", "dam-unconfined",
              "--mesh", "cartesian:10x10", "--config", "hard.ini",
              "--out", "hard")
    assert out.returncode == 2, out.stderr
    (tmp_path / "bad.ini").write_text("[solver]\nanderson = -1\n")
    out = run("solve", "--config", "bad.ini", "--out", "bad")
    assert out.returncode == 1
    assert out.stderr == \
        "error: config [solver]: anderson must be an integer >= 0, got -1\n"
    assert not (tmp_path / "bad").exists()


def test_config_percent_is_literal_in_dir(tmp_path):
    cfg = tmp_path / "pct.ini"
    cfg.write_text(f"[output]\ndir = {tmp_path}/out%1\n")
    rc = run_cli("solve", "--preset", "dam-unconfined",
                 "--mesh", "cartesian:3x3", "--config", str(cfg))
    assert rc == 0
    assert (tmp_path / "out%1" / "report.csv").exists()


def test_config_percent_in_number_is_a_bad_value(tmp_path, capsys):
    cfg = tmp_path / "pct.ini"
    cfg.write_text("[solver]\nnit_max = 5%\n")
    rc = run_cli("solve", "--preset", "dam-unconfined",
                 "--mesh", "cartesian:3x3", "--config", str(cfg),
                 "--out", str(tmp_path / "o"))
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: config [solver] nit_max = '5%' is not a valid int\n"


def _sweep_row():
    return Path("out", "sweep.csv").read_text().splitlines()[1].split(",")


# per option: the command, the value its key gets in the INI file, the
# option's value, and whether a run's stdout (and its files in the
# working directory) shows a given value in effect
OPTION_CASES = {
    "preset": ("solve", "layered-slab", "dam-vgm",
               lambda v, out: out.startswith(f"{v} scheme=")),
    "mesh": ("solve", "cartesian:3x3", "cartesian:4x3",
             lambda v, out: f"CELLS {dam_mesh(v).n_cells} " in
             Path("out", "solution.vtk").read_text()),
    "scheme": ("solve", "mpfa-o", "tpfa",
               lambda v, out: f" scheme={v} " in out),
    "solver": ("solve", "picard", "newton",
               lambda v, out: f" solver={v} " in out),
    "continuation": ("solve", "power", "linear",
                     lambda v, out: f" kind={v}: " in out),
    "out": ("solve", "a", "b",
            lambda v, out: f"outputs written to {v}/" in out and
            Path(v, "report.csv").exists()),
    "schemes": ("sweep", "mpfa-o", "tpfa",
                lambda v, out: _sweep_row()[0] == v),
    "solvers": ("sweep", "picard", "newton",
                lambda v, out: _sweep_row()[1] == v),
    "kinds": ("sweep", "power", "linear",
              lambda v, out: _sweep_row()[2] == v),
}


@pytest.mark.parametrize("option", sorted(OPTIONS))
def test_option_wins_over_its_key(tmp_path, monkeypatch, capsys, option):
    command, ini_value, option_value, shows = OPTION_CASES[option]
    section, key = OPTIONS[option]
    monkeypatch.chdir(tmp_path)
    sections = {"problem": {"mesh": "cartesian:3x3"},
                "sweep": {"schemes": "tpfa", "solvers": "newton",
                          "kinds": "linear"}}
    sections.setdefault(section, {})[key] = ini_value
    Path("run.ini").write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()))
    # the file's value without the option, the option's value with it
    for argv, value in (((), ini_value),
                        ((f"--{option}", option_value), option_value)):
        capsys.readouterr()
        assert run_cli(command, "--config", "run.ini", *argv) == 0
        assert shows(value, capsys.readouterr().out)


def test_empty_option_falls_back_to_file(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[problem]\npreset = dam-vgm\nmesh = cartesian:3x3\n")
    rc = run_cli("solve", "--preset", "", "--config", str(cfg),
                 "--out", str(tmp_path / "o"))
    assert rc == 0
    assert capsys.readouterr().out.startswith("dam-vgm scheme=")


def test_option_replaces_an_invalid_file_value(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[solver]\nmethod = bfgs\n")
    rc = run_cli("solve", "--preset", "dam-unconfined", "--solver", "newton",
                 "--mesh", "cartesian:3x3", "--config", str(cfg),
                 "--out", str(tmp_path / "o"))
    assert rc == 0


@pytest.mark.parametrize("argv, ini, err", [
    pytest.param(("--solver", "bfgs"), "[solver]\nnit_pic = 3\n",
                 "error: unknown method 'bfgs' "
                 "(supported: newton, picard, mixed)\n", id="option"),
    pytest.param(("--continuation", "cubic"),
                 "[continuation]\nkind = linear\n",
                 "error: unknown continuation kind 'cubic' "
                 "(supported: linear, power)\n", id="option-kind"),
    pytest.param(("--solver", "newton"),
                 "[solver]\neps_rel = 2\n",
                 "error: config [solver]: "
                 "eps_rel must lie in (0, 1), got 2.0\n", id="file"),
    pytest.param((), "[line_search]\ngamma = 0.9\n",
                 "error: config [line_search]: "
                 "gamma must lie in (0, 0.5], got 0.9\n", id="file-gamma"),
])
def test_invalid_value_blames_its_source(tmp_path, capsys, argv, ini, err):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    rc = run_cli("solve", "--preset", "dam-unconfined", *argv,
                 "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert rc == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("ini", ["[DEFAULT]\nmethod = newton\n",
                                 "[DEFAULT]\nmethod = newton\n"
                                 "[solver]\nnit_pic = 3\n"],
                         ids=["alone", "with-solver"])
def test_default_section_is_unknown(tmp_path, capsys, ini):
    # neither ignored on its own nor applied next to [solver]
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    rc = run_cli("solve", "--mesh", "cartesian:3x3", "--config", str(cfg),
                 "--out", str(tmp_path / "o"))
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: config has unknown section [DEFAULT] (known: [problem], "
        "[solver], [line_search], [warmup], [continuation], [output], "
        "[sweep])\n")
    assert not (tmp_path / "o").exists()


def test_no_file_and_no_options_resolve_to_the_defaults():
    cfg = _read_config(None)
    assert cfg == SECTIONS
    assert cfg["solver"].line_search == cfg["line_search"]
    assert cfg["solver"].warmup == cfg["warmup"]
    # the dict sections are copies
    assert all(cfg[s] is not SECTIONS[s] for s in SECTIONS)


def test_problem_mode_reaches_the_problem(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[problem]\nmode = upwind\nmesh = cartesian:3x3\n")
    preset, spec = _build_problem(_read_config(str(cfg)))
    assert (preset, spec.kr_mode) == ("dam-unconfined", "upwind")
