"""Command-line front end.

Subcommands: ore, approx, folner, vdim, homology, betti-finite.
Inputs are JSON files in the wire formats of ``jsonio``.  Each subcommand
prints the ``dimensions.Record`` rows the library returns, unchanged, as
CSV (header ``method,level,normalizer,raw,normalized,certified``) or as a
JSON mirror of the same rows; approx adds its tolerance and agreement
flags to the JSON.  ``--levels`` is read by approx, folner and homology,
``--tol`` by approx; the others reject them.  Exit codes: 0 success, 2
malformed input (diagnostic names the JSON path), 3 unsupported operation
(message equals the library error text).
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import shutil
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from . import chains, dimensions, jsonio
from .dimensions import Record
from .errors import MismatchError, SchemaError, UnsupportedOperationError

CSV_HEADER = ["method", "level", "normalizer", "raw", "normalized", "certified"]


def _row(rec: Record) -> dict:
    return {"method": rec.method, "level": rec.level, "normalizer": rec.normalizer,
            "raw": rec.raw, "normalized": jsonio.fraction_to_json(rec.normalized),
            "certified": rec.certified}


def render(records: List[Record], fmt: str, extra: Optional[dict] = None) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, CSV_HEADER, lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow({**_row(rec), "certified": "true" if rec.certified else "false"})
        return buf.getvalue()
    payload = {"records": [_row(rec) for rec in records]}
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(path, f"cannot read input: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON: {exc}") from None


def _parse_levels(text: Optional[str]) -> Optional[Tuple[int, ...]]:
    """The levels given on the command line, or None for the group default."""
    if not text:
        return None
    try:
        levels = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise SchemaError("--levels", f"expected comma-separated integers, got {text!r}") from None
    if not levels or levels != sorted(set(levels)) or levels[0] < 1:
        raise SchemaError(
            "--levels",
            f"levels must be strictly increasing positive integers: {text!r}")
    return tuple(levels)


def _parse_tol(text: str) -> Fraction:
    tol = jsonio.parse_fraction(text, "--tol")
    if tol <= 0:
        raise SchemaError("--tol", "tolerance must be positive")
    return tol


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# name -> (help line, reads --levels, reads --tol)
COMMANDS = {
    "ore": ("exact Ore dimension of a Z^d module", False, False),
    "approx": ("all dimension functions side by side", True, True),
    "folner": ("Foelner truncation table", True, False),
    "vdim": ("virtual Ore dimension", False, False),
    "homology": ("homology dimensions of a chain complex", True, False),
    "betti-finite": ("Betti numbers of finite quotient groups (Z/n)^d", False, False),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The argument parser, built for one request.

    Every subcommand is registered, so usage and error text do not depend
    on ``command``.  When ``command`` names a subcommand, only its
    subparser gets options, since ``parse_args`` dispatches to no other;
    otherwise all of them do.  The help width is read once per build,
    because argparse reads the terminal size for every ``add_argument``.
    """
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="oredim",
        description="Exact dimension functions for modules over group rings "
                    "of Z^d, the infinite dihedral group, and the Heisenberg group.",
        formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, levels, tol) in COMMANDS.items():
        used = command not in COMMANDS or command == name
        p = sub.add_parser(name, help=summary, formatter_class=formatter, add_help=used)
        if not used:
            continue
        p.add_argument("--input", required=True, help="path to a JSON input file")
        if levels:
            p.add_argument("--levels", default=None,
                           help="comma-separated strictly increasing levels")
        p.add_argument("--seed", type=int, default=0)
        if tol:
            p.add_argument("--tol", default="1/20",
                           help="agreement tolerance as an exact rational, e.g. 1/20")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _run_ore(args) -> List[Record]:
    module = jsonio.decode_module(_load_json(args.input))
    return [dimensions.ore_dim(module, seed=args.seed)]


def _run_vdim(args) -> List[Record]:
    module = jsonio.decode_module(_load_json(args.input))
    subgroup = dimensions.default_subgroup(module.group)
    return [dimensions.virtual_ore_dim(module, subgroup, seed=args.seed)]


def _run_folner(args) -> List[Record]:
    module = jsonio.decode_module(_load_json(args.input))
    return dimensions.elek_truncation_dim(module, _parse_levels(args.levels))


def _run_approx(args) -> Tuple[List[Record], dict]:
    module = jsonio.decode_module(_load_json(args.input))
    levels = _parse_levels(args.levels)
    tol = _parse_tol(args.tol)
    records, agreement = dimensions.approx_report(module, levels, tol, args.seed)
    return records, {"tol": jsonio.fraction_to_json(tol), "agreement": agreement}


def _run_homology(args) -> List[Record]:
    complex_ = jsonio.decode_complex(_load_json(args.input))
    return chains.homology_report(complex_, _parse_levels(args.levels), seed=args.seed)


def _run_betti_finite(args) -> List[Record]:
    d, ns, i_max, field = jsonio.decode_betti_request(_load_json(args.input))
    return [Record(f"finite-betti-b{i}", n, n ** d, b)
            for n in ns for i, b in enumerate(chains.finite_group_betti(d, n, field, i_max))]


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if args.command == "approx":
            records, extra = _run_approx(args)
        else:
            run = {"ore": _run_ore, "vdim": _run_vdim, "folner": _run_folner,
                   "homology": _run_homology, "betti-finite": _run_betti_finite}
            records, extra = run[args.command](args), None
        _emit(render(records, args.format, extra), args.out)
        return 0
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnsupportedOperationError, MismatchError) as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
