"""Command-line front end, and the one writer of every report format.

Subcommands: simulate, converge, stability, addedmass, rb3d.  Options come
from an optional JSON config file with individual flags overriding keys.
A report with rows (stability, addedmass) prints as a text table, and --out
gets it as CSV with the config echoed in comment lines; any other report is
strict JSON, written to --out or else to stdout.
Exit codes: 0 success, 2 validation or output error, 3 numerical failure:
any ArithmeticError raised while running, named on one stderr line.  Each
failure type of the solvers subclasses ArithmeticError for that reason.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from math import isfinite

from .harness import COUPLINGS, SCHEMES, SHAPES, RunConfig, run_mode

SUBCOMMAND_MODES = {
    "simulate": "simulate1d",
    "converge": "converge1d",
    "stability": "stability_sweep",
    "addedmass": "addedmass_table",
    "rb3d": "rigidbody3d_demo",
}

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)  # the flags every subcommand takes
    common.add_argument("--config", help="JSON config file; flags override its keys")
    common.add_argument("--out", help="output path (.json report or .csv table)")
    common.add_argument("--scheme", choices=SCHEMES)
    common.add_argument("--coupling", choices=COUPLINGS)
    common.add_argument("--alpha-left", type=float, dest="alpha_left")
    common.add_argument("--alpha-right", type=float, dest="alpha_right")
    common.add_argument("--mass", type=float)
    common.add_argument("--cfl", type=float)
    common.add_argument("--cells", type=int, dest="n_cells")
    common.add_argument("--levels", type=int)
    common.add_argument("--tfinal", type=float, dest="t_final")
    common.add_argument("--seed", type=int)
    parser = argparse.ArgumentParser(
        prog="bodywave",
        description="Partitioned fluid/rigid-body model problems: runs, sweeps, tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, mode in SUBCOMMAND_MODES.items():
        p = sub.add_parser(name, help=f"run mode {mode}", parents=[common])
        if name == "addedmass":
            p.add_argument("--shape", choices=SHAPES)
            p.add_argument("--resolution", type=int)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    data = {}
    if args.config:
        with open(args.config) as fh:
            file_data = json.load(fh)
        if not isinstance(file_data, dict):
            raise ValueError("config file must hold a JSON object")
        data.update(file_data)
    data["mode"] = SUBCOMMAND_MODES[args.command]
    data.update((key, value) for key, value in vars(args).items()
                if value is not None and key not in ("command", "config"))
    return RunConfig.from_dict(data)


def _jsonable(obj):
    """Strict JSON has no NaN or Infinity: a non-finite float is written as null."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_jsonable(v) for v in obj]
    return None if isinstance(obj, float) and not isfinite(obj) else obj


def format_json(report: dict) -> str:
    """Report as strict (no NaN/Infinity), indented, key-sorted JSON text
    ending in a newline."""
    return json.dumps(_jsonable(report), indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_csv_table(path: str, rows: list[dict], config: dict) -> None:
    """CSV with the config echoed in leading comment lines (self-describing,
    and bit-identical for identical config + seed)."""
    with open(path, "w", newline="") as fh:
        for key in sorted(config):
            fh.write(f"# {key} = {config[key]}\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def format_table(rows: list[dict]) -> str:
    """Plain-text rendering of a row table (fixed column order)."""
    cols = list(rows[0])
    rendered = [[_text_cell(r[c]) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in rendered)) for i, c in enumerate(cols)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                     for row in [cols, *rendered])


def _text_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _emit(report: dict, cfg: RunConfig):
    """Write the report; return the stream left for the summary lines
    (stderr when the JSON report itself went to stdout)."""
    if "rows" in report:
        print(format_table(report["rows"]))
        if cfg.out:
            write_csv_table(cfg.out, report["rows"], report["config"])
    elif cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(format_json(report))
    else:
        sys.stdout.write(format_json(report))
        return sys.stderr
    if cfg.out:
        print(f"wrote {cfg.out}")
    return sys.stdout


def _summarize(report: dict, stream) -> None:
    if "rates" in report:
        rates = ", ".join(f"{k}={v:.3f}" for k, v in report["rates"].items())
        print(f"fitted rates: {rates}", file=stream)
    if "all_agree" in report:
        print(f"prediction/measurement agreement: {report['all_agree']}", file=stream)
    if "all_ok" in report:
        print(f"all reference checks passed: {report['all_ok']}", file=stream)
    if "errors" in report:
        errs = ", ".join(f"{k}={v:.3e}" for k, v in report["errors"].items())
        print(f"errors vs exact solution: {errs}", file=stream)
    if "max_e_drift" in report:
        print(f"max axes orthogonality drift: {report['max_e_drift']:.3e}", file=stream)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_mode(cfg)
    except ArithmeticError as exc:  # before ValueError: several failure types are both
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    try:
        _summarize(report, _emit(report, cfg))
    except BrokenPipeError:
        # downstream closed the pipe (e.g. `bodywave ... | head`); point
        # stdout at devnull so the interpreter's exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError as exc:  # e.g. --out names a missing directory or a directory
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
