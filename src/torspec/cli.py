"""Command-line front end: run experiments, apply symbols, drive the suite.

Exit codes: 0 all assertions pass, 1 assertion failure, 2 bad flags,
unparsable inputs (JSON nested too deeply too) or an unwritable output root,
3 resource errors (budgets, ranges, frequency caps, a scale index j or m
past 1023, memory).  main maps errors to codes through one table, the same
for every command.  Each experiment parameter is a config key and a run
flag, read from the signatures in REGISTRY; a flag must be given in full,
never abbreviated, as a config key must.  A flag value is read by
_parse_value exactly as the config value of the same key is, and both are
typed only by serialize.typed_param and then checked by the rule of their
name (experiments._RULES), before any work.  run and suite write every file
atomically, and only once the last experiment has returned and every text is
ready, so a run that fails writes nothing.  The output root comes from
--out, the config file, or the TORSPEC_OUT environment variable, in that
order of precedence; each that is given must be a nonempty string.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .cutoffs import CutoffProfile, default_families
from .errors import TorspecError
from .experiments import REGISTRY, ExperimentReport
from .fields import check_scale_index
from .operator import apply_with_support, check_work
from .serialize import (
    atomic_write_text,
    json_text,
    load_sparse,
    load_symbol,
    profile_from_json,
    save_sparse,
    typed_param,
)
from .symbols import symbol_full_modulate


def _builtin_profiles() -> dict[str, CutoffProfile]:
    main, alt = default_families()
    return {"main": main.profile, "alt": alt.profile}


@dataclass
class RunConfig:
    """Static run configuration: output root, plots, profiles, overrides.

    profiles starts with the cutoffs of default_families() as "main" and
    "alt"; a profile.<name> config line adds or replaces one.
    """

    out: Path = Path("runs")
    emit_plots: bool = False
    profiles: dict[str, CutoffProfile] = field(default_factory=_builtin_profiles)
    overrides: dict[str, dict] = field(default_factory=dict)

    def profile(self, name: str) -> CutoffProfile:
        if name not in self.profiles:
            raise KeyError(f"unknown profile {name!r}")
        return self.profiles[name]


def _params(name: str):
    """The parameters of one experiment, read from REGISTRY now, by name."""
    return inspect.signature(REGISTRY[name]).parameters


def _param_names(names) -> dict:
    """The parameter names of the named experiments, each once, in order."""
    return dict.fromkeys(key for name in names for key in _params(name))


def _parse_value(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        pass
    if "," in raw:
        return [_parse_value(part) for part in raw.split(",")]
    return raw


def load_config(path: str | None) -> RunConfig:
    """Parse the flat dotted key-value configuration file.

    Besides ``out`` (a nonempty string) and ``emit_plots`` (a JSON
    true/false), a key is ``profile.<name>`` or ``<experiment>.<param>``
    naming a parameter of that experiment, with a value of the type of its
    default; anything else raises ValueError.  A profile value is a JSON
    object with numbers "r" and "R", an optional string "kind" (default
    "exp") and no other key.
    """
    cfg = RunConfig()
    env_out = os.environ.get("TORSPEC_OUT")
    if env_out is not None:
        cfg.out = Path(typed_param(env_out, "runs", "TORSPEC_OUT"))
    if path is None:
        return cfg
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key, raw = (part.strip() for part in line.split("=", 1))
            value = _parse_value(raw)
            if key == "out":
                cfg.out = Path(typed_param(value, "runs", f"{path}:{line_no}: {key}"))
            elif key == "emit_plots":
                typed_param(value, False, f"{path}:{line_no}: {key}")
                cfg.emit_plots = value
            elif key.startswith("profile."):
                typed_param(value, {}, f"{path}:{line_no}: {key}")
                cfg.profiles[key.split(".", 1)[1]] = profile_from_json({"kind": "exp", **value})
            else:
                exp, _, param = key.partition(".")
                param = param.replace("-", "_")
                params = _params(exp) if exp in REGISTRY else {}
                if param not in params:
                    raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
                typed_param(value, params[param].default, f"{path}:{line_no}: {key}")
                cfg.overrides.setdefault(exp, {})[param] = value
    return cfg


_PLOT_TEMPLATE = """\
#!/usr/bin/env python
\"\"\"Render the CSV tables of the {name} experiment (generated, not executed).\"\"\"
import csv
import sys
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
for table in {tables!r}:
    rows = list(csv.reader((here / table).open()))
    header, data = rows[0], rows[1:]
    if not data:
        continue
    fig, ax = plt.subplots()
    xs = range(len(data))
    for col in range(1, len(header)):
        try:
            ys = [float(r[col]) for r in data]
        except ValueError:
            continue
        ax.plot(xs, ys, marker="o", label=header[col])
    ax.set_title("{name}: " + table)
    ax.set_xlabel(header[0])
    ax.legend()
    fig.savefig(here / (table.rsplit(".", 1)[0] + ".png"), dpi=120)
print("wrote plots next to the CSV tables")
"""


def _report_files(name: str, report: ExperimentReport, cfg: RunConfig) -> list:
    """(path, text) of each file of one experiment: its CSV tables, its plot
    script under emit_plots, then report.json, whose artifacts list the others."""
    outdir = cfg.out / name
    files = []
    for table, (header, rows) in report.tables.items():
        buf = io.StringIO()
        csv.writer(buf).writerows([header, *rows])
        files.append((outdir / table, buf.getvalue()))
    if cfg.emit_plots:
        script = _PLOT_TEMPLATE.format(name=name, tables=list(report.tables))
        files.append((outdir / f"plot_{name}.py", script))
    report.artifacts = [str(path) for path, _ in files]
    return files + [(outdir / "report.json", json_text(report.to_json()))]


def _experiment_kwargs(name: str, cfg: RunConfig, flag_params: dict) -> dict:
    """Config overrides, then flags, by name; the experiment types each value."""
    if name not in REGISTRY:
        raise ValueError(f"unknown experiment {name!r}")
    kwargs = {**cfg.overrides.get(name, {}), **flag_params}
    params = _params(name)
    for key in kwargs:
        if key not in params:
            raise ValueError(f"experiment {name!r} has no parameter {key!r}")
    return kwargs


def run_experiment(name: str, cfg: RunConfig, flag_params: dict) -> int:
    report = REGISTRY[name](**_experiment_kwargs(name, cfg, flag_params))
    for path, text in _report_files(name, report, cfg):
        atomic_write_text(path, text)
    for assertion in report.assertions:
        state = "PASS" if assertion.passed else "FAIL"
        print(f"[{state}] {name}: {assertion.id} (measured {assertion.measured:.3g},"
              f" tol {assertion.tolerance:.3g})")
    return 0 if report.passed else 1


def run_suite(cfg: RunConfig) -> int:
    started = time.time()
    reports = {}
    for name in REGISTRY:
        reports[name] = REGISTRY[name](**_experiment_kwargs(name, cfg, {}))
        print(f"[{'PASS' if reports[name].passed else 'FAIL'}] {name}")
    files = [f for name, report in reports.items() for f in _report_files(name, report, cfg)]
    summary = {
        "experiments": [report.to_json() for report in reports.values()],
        "pass": all(report.passed for report in reports.values()),
        "wall_seconds": time.time() - started,
    }
    for path, text in files + [(cfg.out / "summary.json", json_text(summary))]:
        atomic_write_text(path, text)
    print(f"suite finished in {summary['wall_seconds']:.1f}s:"
          f" {'PASS' if summary['pass'] else 'FAIL'}")
    return 0 if summary["pass"] else 1


def run_apply(args, cfg: RunConfig) -> int:
    """Apply the symbol, or with --modulate its full modulation, to the field.

    Xi is the support bound of the symbol actually applied; the pair budget
    counts the input symbol either way.  A --modulate outside 0..1023 is
    rejected by check_scale_index before any input is read.
    """
    # An absent --modulate sets no attribute, so a given null is no absent flag.
    if hasattr(args, "modulate"):
        check_scale_index(typed_param(args.modulate, 0, "--modulate"), "--modulate")
    symbol = load_symbol(args.symbol)
    field_in = load_sparse(args.field)
    if hasattr(args, "modulate"):
        profile = cfg.profile(args.profile)
        check_work(symbol, field_in)
        symbol = symbol_full_modulate(symbol, args.modulate, profile)
    out, xi_set = apply_with_support(symbol, field_in)
    save_sparse(out, args.out_field)
    print(f"output modes: {len(out)}; support bound size: {len(xi_set)};"
          f" containment: {out.spectrum() <= xi_set}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--out", default=None, help="output directory root")
    parser.add_argument("--emit-plots", action="store_true")


def _add_param_flags(parser: argparse.ArgumentParser, names) -> None:
    """One flag per parameter name, its value read by _parse_value as a config
    value is; the experiment types it.  An absent flag sets no attribute, so
    a given JSON null is not taken for an absent flag."""
    for key in names:
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=key, type=_parse_value, default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="torspec", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one named experiment", allow_abbrev=False)
    p_run.add_argument("name", help=f"one of: {', '.join(REGISTRY)}")
    _add_common(p_run)
    _add_param_flags(p_run, _param_names(REGISTRY))

    p_suite = sub.add_parser(
        "suite", help="run every experiment at default parameters", allow_abbrev=False
    )
    _add_common(p_suite)

    p_part = sub.add_parser(
        "partition-check", help="shortcut for `run partition-check`", allow_abbrev=False
    )
    _add_common(p_part)
    p_part.set_defaults(name="partition-check")
    _add_param_flags(p_part, _params("partition-check"))

    p_apply = sub.add_parser(
        "apply", help="apply a serialized symbol to a field", allow_abbrev=False
    )
    _add_common(p_apply)
    p_apply.add_argument("--symbol", required=True)
    p_apply.add_argument("--field", required=True)
    p_apply.add_argument("--out-field", required=True)
    p_apply.add_argument("--modulate", type=_parse_value, default=argparse.SUPPRESS)
    p_apply.add_argument("--profile", default="main")
    return parser


def main(argv=None) -> int:
    """Run one command; every error maps to its exit code through one table."""
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        if args.out is not None:
            cfg.out = Path(typed_param(args.out, "runs", "--out"))
        cfg.emit_plots = cfg.emit_plots or args.emit_plots
        if args.command == "suite":
            return run_suite(cfg)
        if args.command == "apply":
            return run_apply(args, cfg)
        names = _param_names(REGISTRY)
        return run_experiment(args.name, cfg, {k: v for k, v in vars(args).items() if k in names})
    except SystemExit as exc:  # argparse: --help, or a bad flag (2)
        return int(exc.code or 0)
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        return _error(2, exc)
    except (TorspecError, OverflowError, MemoryError) as exc:  # budgets, caps, ranges, memory
        return _error(3, exc)


def _error(code: int, exc: BaseException) -> int:
    print(f"torspec: {type(exc).__name__}: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
