"""Command-line interface: run presets or config-defined problems and
solver-comparison sweeps.

Exit codes: 0 on success, 1 on usage/config errors, 2 when the
continuation fails to reach q = 1 (sweeps always exit 0 once all
entries executed; failures there are data).
"""

import argparse
import configparser
import os
import sys
from dataclasses import fields, replace

from .benchmarks import build_preset, preset_names
from .continuation import (ContinuationConfig, make_entries,
                           run_continuation, sweep)
from .discretization import SCHEMES, Discretization
from .mesh import read_mesh
from .output import (field_snapshot, format_sweep_table, write_sweep_csv,
                     write_convergence_csv, write_report_csv, write_vtk)
from .solvers import SolverConfig

__all__ = ["main"]


class UsageError(Exception):
    """Configuration or argument problem (exit code 1)."""


# Config sections and the keys each accepts; None marks a section whose
# keys are the fields of its config dataclass (checked in _section_into).
CONFIG_KEYS = {
    "problem": ("preset", "mesh", "mode", "scheme"),
    "solver": None,
    "line_search": None,
    "warmup": None,
    "continuation": None,
    "output": ("dir",),
    "sweep": ("schemes", "solvers", "kinds"),
}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="richardsfv",
        description="Steady-state Richards equation finite-volume solver "
                    "with nonlinearity continuation.")
    sub = p.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file (key = value "
                                         "with bracket sections)")
    common.add_argument("--preset", help="problem preset: " +
                                         ", ".join(preset_names()))
    common.add_argument("--mesh", help="mesh: 'cartesian:NXxNZ', "
                                       "'triangular:NXxNZ', a named dam "
                                       "grid (400/6400/5500/1900), or a "
                                       "mesh file path")
    common.add_argument("--out", help="output directory")

    ps = sub.add_parser("solve", parents=[common],
                        help="run one continuation solve")
    ps.add_argument("--scheme", help="flux scheme: tpfa or mpfa-o")
    ps.add_argument("--solver", help="nonlinear method: newton, picard "
                                     "or mixed")
    ps.add_argument("--continuation", help="continuation kind: linear "
                                           "or power")

    pw = sub.add_parser("sweep", parents=[common],
                        help="run a scheme x solver x kind comparison")
    pw.add_argument("--schemes", help="comma list (default tpfa,mpfa-o)")
    pw.add_argument("--solvers", help="comma list (default "
                                      "newton,picard,mixed)")
    pw.add_argument("--kinds", help="comma list (default linear,power)")
    return p


def _read_config(path):
    if path is None:
        return configparser.ConfigParser()
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise UsageError(f"cannot parse config {path}: {exc}") from None
    for section in cp.sections():
        if section not in CONFIG_KEYS:
            raise UsageError(
                f"config has unknown section [{section}] (known: "
                f"{', '.join(f'[{s}]' for s in CONFIG_KEYS)})")
        keys = CONFIG_KEYS[section]
        for key in cp.options(section):
            if keys is not None and key not in keys:
                raise UsageError(
                    f"config [{section}] has unknown key {key!r}")
    return cp


def _cfg_get(cp, section, key, fallback=None):
    if cp.has_option(section, key):
        return cp.get(section, key)
    return fallback


def _typed(section, key, raw, typ):
    try:
        return typ(raw)
    except ValueError:
        raise UsageError(
            f"config [{section}] {key} = {raw!r} is not a valid "
            f"{typ.__name__}") from None


def _section_into(cp, section, defaults):
    """Overlay config values onto a dataclass instance, type-checked
    against the field defaults. A key naming a nested config (warmup,
    line_search) is rejected: its fields belong in their own section."""
    if not cp.has_section(section):
        return defaults
    names = {f.name for f in fields(defaults)}
    updates = {}
    for key in cp.options(section):
        if key not in names:
            raise UsageError(
                f"config [{section}] has unknown key {key!r}")
        cur = getattr(defaults, key)
        if not isinstance(cur, (int, float, str)):
            raise UsageError(
                f"config [{section}] {key} is a section of its own; "
                f"set its fields under [{key}]")
        updates[key] = _typed(section, key, cp.get(section, key), type(cur))
    try:
        return replace(defaults, **updates)
    except ValueError as exc:
        raise UsageError(f"config [{section}]: {exc}") from None


def _resolve_mesh(mesh_arg):
    if mesh_arg is None:
        return "400"
    if os.path.sep in mesh_arg or os.path.exists(mesh_arg):
        try:
            return read_mesh(mesh_arg)
        except OSError as exc:
            raise UsageError(f"cannot read mesh file: {exc}") from None
    return mesh_arg


def _build_problem(args, cp):
    preset = args.preset or _cfg_get(cp, "problem", "preset",
                                     "dam-unconfined")
    if preset not in preset_names():
        raise UsageError(f"unknown preset {preset!r} "
                         f"(available: {', '.join(preset_names())})")
    mesh = _resolve_mesh(args.mesh or _cfg_get(cp, "problem", "mesh"))
    mode = _cfg_get(cp, "problem", "mode", "central")
    try:
        spec = build_preset(preset, mesh, mode)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return preset, spec


def _solver_config(cp, method=None):
    base = SolverConfig()
    cfg = _section_into(cp, "solver", base)
    ls = _section_into(cp, "line_search", cfg.line_search)
    wu = _section_into(cp, "warmup", cfg.warmup)
    try:
        cfg = replace(cfg, line_search=ls, warmup=wu)
        if method is not None:
            cfg = replace(cfg, method=method)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return cfg


def _cont_config(cp, kind=None):
    cfg = _section_into(cp, "continuation", ContinuationConfig())
    if kind is not None:
        try:
            cfg = replace(cfg, kind=kind)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    return cfg


def _check_choice(name, value, allowed):
    if value not in allowed:
        raise UsageError(
            f"unsupported {name} {value!r} (supported: "
            f"{', '.join(allowed)})")


def _out_dir(args, cp):
    out = args.out or _cfg_get(cp, "output", "dir", "out")
    os.makedirs(out, exist_ok=True)
    return out


def cmd_solve(args):
    cp = _read_config(args.config)
    scheme = args.scheme or _cfg_get(cp, "problem", "scheme", "tpfa")
    _check_choice("scheme", scheme, SCHEMES)
    solver_cfg = _solver_config(cp, args.solver)
    cont_cfg = _cont_config(cp, args.continuation)
    preset, spec = _build_problem(args, cp)
    out = _out_dir(args, cp)

    disc = Discretization(spec, scheme)
    h, report = run_continuation(disc, solver_cfg, cont_cfg)

    write_report_csv(report, os.path.join(out, "report.csv"))
    for i, step in enumerate(report.steps):
        write_convergence_csv(
            step.trace, os.path.join(out, f"trace_step{i:03d}.csv"))
    write_vtk(field_snapshot(disc, h), os.path.join(out, "solution.vtk"))

    status = "ok" if report.success else "FAILED"
    print(f"{preset} scheme={scheme} solver={solver_cfg.method} "
          f"kind={cont_cfg.kind}: {status}, steps "
          f"{report.n_success}({report.n_failed}), total iterations "
          f"{report.total_iterations}")
    print(f"outputs written to {out}/")
    return 0 if report.success else 2


def cmd_sweep(args):
    cp = _read_config(args.config)
    schemes = (args.schemes or
               _cfg_get(cp, "sweep", "schemes", "tpfa,mpfa-o")).split(",")
    solvers = (args.solvers or
               _cfg_get(cp, "sweep", "solvers",
                        "newton,picard,mixed")).split(",")
    kinds = (args.kinds or
             _cfg_get(cp, "sweep", "kinds", "linear,power")).split(",")
    schemes = [s.strip() for s in schemes if s.strip()]
    solvers = [s.strip() for s in solvers if s.strip()]
    kinds = [s.strip() for s in kinds if s.strip()]
    for s in schemes:
        _check_choice("scheme", s, SCHEMES)
    entries = make_entries(schemes, solvers, kinds, _solver_config(cp),
                           _cont_config(cp))
    preset, spec = _build_problem(args, cp)
    out = _out_dir(args, cp)

    rows = sweep(spec, entries)
    write_sweep_csv(rows, os.path.join(out, "sweep.csv"))
    print(f"sweep of {preset}: {len(rows)} configurations")
    print(format_sweep_table(rows))
    print(f"table written to {out}/sweep.csv")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        parser.print_help()
        return 1
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "sweep":
            return cmd_sweep(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
