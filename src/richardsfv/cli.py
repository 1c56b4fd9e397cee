"""Command-line interface: run presets or config-defined problems and
solver-comparison sweeps.

Exit codes: 0 on success, 1 on usage/config errors, 2 when the
continuation fails to reach q = 1 (sweeps always exit 0 once all
entries executed; failures there are data, and a flux scheme the
discretization refuses, as MPFA-O refuses a degree-2 vertex, gives
"refused" rows and one logged line naming the reason).
"""

import argparse
import configparser
import os
import re
import sys
from dataclasses import fields, replace

from .benchmarks import DAM_GRIDS, GENERATORS, build_preset, preset_names
from .continuation import (ContinuationConfig, make_entries,
                           run_continuation, sweep)
from .constitutive import KINDS
from .discretization import SCHEMES, AssemblyError, Discretization
from .output import (field_snapshot, format_sweep_table, write_sweep_csv,
                     write_convergence_csv, write_report_csv, write_vtk)
from .solvers import METHODS, LineSearchConfig, SolverConfig, WarmupConfig

__all__ = ["main"]


class UsageError(Exception):
    """Configuration or argument problem (exit code 1)."""


# Each config section and its defaults: its config dataclass, whose
# fields are the section's keys, or a dict of string keys.
SECTIONS = {
    "problem": {"preset": "dam-unconfined", "mesh": "400",
                "mode": "central", "scheme": "tpfa"},
    "solver": SolverConfig(),
    "line_search": LineSearchConfig(),
    "warmup": WarmupConfig(),
    "continuation": ContinuationConfig(),
    "output": {"dir": "out"},
    "sweep": {"schemes": ",".join(SCHEMES), "solvers": ",".join(METHODS),
              "kinds": ",".join(KINDS)},
}

# Each command-line option and the (section, key) it writes over.
OPTIONS = {
    "preset": ("problem", "preset"),
    "mesh": ("problem", "mesh"),
    "scheme": ("problem", "scheme"),
    "solver": ("solver", "method"),
    "continuation": ("continuation", "kind"),
    "out": ("output", "dir"),
    "schemes": ("sweep", "schemes"),
    "solvers": ("sweep", "solvers"),
    "kinds": ("sweep", "kinds"),
}


def _or(names):
    """'a, b or c' of a table of names."""
    return f"{', '.join(names[:-1])} or {names[-1]}"


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
    forms = "".join(f"'{kind}:NXxNZ', " for kind in GENERATORS)
    common.add_argument("--mesh", help=f"mesh: {forms}a named dam grid "
                                       f"({'/'.join(DAM_GRIDS)}), or a "
                                       "mesh file path")
    common.add_argument("--out", help="output directory")

    ps = sub.add_parser("solve", parents=[common],
                        help="run one continuation solve")
    ps.add_argument("--scheme", help=f"flux scheme: {_or(SCHEMES)}")
    ps.add_argument("--solver", help=f"nonlinear method: {_or(METHODS)}")
    ps.add_argument("--continuation",
                    help=f"continuation kind: {_or(KINDS)}")

    pw = sub.add_parser("sweep", parents=[common],
                        help="run a scheme x solver x kind comparison")
    for option, default in SECTIONS["sweep"].items():
        pw.add_argument(f"--{option}", help=f"comma list (default {default})")
    return p


def _read_config(path, args=None):
    """The run's configuration, resolved: per SECTIONS key, the
    section's defaults with the values of the INI file at `path`, if
    any, over them, and each non-empty option of `args` over its key
    (OPTIONS), whose file value is then dropped unread. Values are
    literal; unknown sections and keys are refused. A dataclass section
    is a validated instance, its file values checked before its
    options', so that an invalid one is blamed on the file. "solver"
    carries the resolved line_search and warmup."""
    # no header can name the default section, so [DEFAULT] is unknown
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    if path is not None:
        if not os.path.exists(path):
            raise UsageError(f"config file not found: {path}")
        # opened here, not by cp.read, which skips a file it cannot open:
        # a directory or an unreadable file is an error (OSError)
        try:
            with open(path) as f:
                cp.read_file(f, path)
        except configparser.Error as exc:
            # a parsing error's own message spans lines: name its line
            if isinstance(exc, configparser.ParsingError):
                lineno = getattr(exc, "lineno", None) or exc.errors[0][0]
                exc = f"line {lineno}: {str(exc).splitlines()[0]}"
            raise UsageError(f"cannot parse config {path}: {exc}") from None
    for section in cp.sections():
        if section not in SECTIONS:
            raise UsageError(
                f"config has unknown section [{section}] (known: "
                f"{', '.join(f'[{s}]' for s in SECTIONS)})")
        defaults = SECTIONS[section]
        keys = defaults if isinstance(defaults, dict) else \
            {f.name for f in fields(defaults)}
        for key in cp.options(section):
            if key not in keys:
                raise UsageError(
                    f"config [{section}] has unknown key {key!r}")
    cp.read_dict(dict.fromkeys(SECTIONS, {}))  # a missing section is empty
    options = {section: {} for section in SECTIONS}
    for option, (section, key) in OPTIONS.items():
        if getattr(args, option, None):
            options[section][key] = getattr(args, option)
    cfg = {}
    for section, defaults in SECTIONS.items():
        given = options[section]
        from_file = {k: v for k, v in cp[section].items() if k not in given}
        if isinstance(defaults, dict):
            cfg[section] = {**defaults, **from_file, **given}
            continue
        from_file = _typed(section, defaults, from_file)
        try:
            resolved = replace(defaults, **from_file)
        except ValueError as exc:
            raise UsageError(f"config [{section}]: {exc}") from None
        cfg[section] = replace(resolved, **_typed(section, defaults, given))
    cfg["solver"] = replace(cfg["solver"], line_search=cfg["line_search"],
                            warmup=cfg["warmup"])
    return cfg


def _typed(section, defaults, values):
    """`values` typed as the fields of `defaults` they name. A
    key naming a nested config (warmup, line_search) is rejected: its
    fields belong in their own section."""
    typed = {}
    for key, raw in values.items():
        cur = getattr(defaults, key)
        if not isinstance(cur, (int, float, str)):
            raise UsageError(
                f"config [{section}] {key} is a section of its own; "
                f"set its fields under [{key}]")
        try:
            typed[key] = type(cur)(raw)
        except ValueError:
            raise UsageError(
                f"config [{section}] {key} = {raw!r} is not a valid "
                f"{type(cur).__name__}") from None
    return typed


def _build_problem(cfg):
    """(preset name, ProblemSpec) of the resolved [problem] section."""
    problem = cfg["problem"]
    return problem["preset"], build_preset(
        problem["preset"], problem["mesh"], problem["mode"])


def _out_dir(cfg):
    out = cfg["output"]["dir"]
    os.makedirs(out, exist_ok=True)
    return out


def cmd_solve(args):
    cfg = _read_config(args.config, args)
    scheme = cfg["problem"]["scheme"]
    solver_cfg, cont_cfg = cfg["solver"], cfg["continuation"]
    preset, spec = _build_problem(cfg)
    disc = Discretization(spec, scheme)
    out = _out_dir(cfg)

    h, report = run_continuation(disc, solver_cfg, cont_cfg)

    write_report_csv(report, os.path.join(out, "report.csv"))
    for i, step in enumerate(report.steps):
        write_convergence_csv(
            step.trace, os.path.join(out, f"trace_step{i:03d}.csv"))
    # the directory keeps only this run's traces: an earlier, longer
    # run's surplus trace files go
    for name in os.listdir(out):
        m = re.fullmatch(r"trace_step([0-9]{3})\.csv", name)
        if m and int(m[1]) >= len(report.steps):
            os.remove(os.path.join(out, name))
    write_vtk(field_snapshot(disc, h), os.path.join(out, "solution.vtk"))

    status = "ok" if report.success else "FAILED"
    print(f"{preset} scheme={scheme} solver={solver_cfg.method} "
          f"kind={cont_cfg.kind}: {status}, steps "
          f"{report.n_success}({report.n_failed}), total iterations "
          f"{report.total_iterations}")
    print(f"outputs written to {os.path.join(out, '')}")
    return 0 if report.success else 2


def cmd_sweep(args):
    cfg = _read_config(args.config, args)
    schemes, solvers, kinds = (
        [s.strip() for s in value.split(",") if s.strip()]
        for value in cfg["sweep"].values())
    entries = make_entries(schemes, solvers, kinds, cfg["solver"],
                           cfg["continuation"])
    preset, spec = _build_problem(cfg)
    out = _out_dir(cfg)

    rows = sweep(spec, entries)
    write_sweep_csv(rows, os.path.join(out, "sweep.csv"))
    print(f"sweep of {preset}: {len(rows)} configurations")
    print(format_sweep_table(rows))
    print(f"table written to {os.path.join(out, 'sweep.csv')}")
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
        return {"solve": cmd_solve, "sweep": cmd_sweep}[args.command](args)
    except (UsageError, ValueError, OSError, AssemblyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
