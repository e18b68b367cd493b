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

A well-formed request, a subcommand followed by ``--name value`` pairs of
its own options, is read without building a parser.  Anything else (help,
``--name=value``, abbreviations, values that start with ``-``, unknown
options, a missing ``--input``, bad values) goes to the full parser
(``build_parser``), so usage, help and error text are argparse's own, byte
for byte.
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
    except UnicodeDecodeError as exc:
        raise SchemaError(path, f"cannot read input: {exc}") from None
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
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(out, f"cannot write output: {exc.strerror}") from None
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


def _help_formatter():
    """argparse's formatter at the terminal width, read once: argparse
    itself reads the terminal size for every ``add_argument``."""
    return functools.partial(argparse.HelpFormatter,
                             width=shutil.get_terminal_size().columns - 2)


def _add_options(parser: argparse.ArgumentParser, levels: bool, tol: bool) -> None:
    """The options of one subcommand, for its subparser in ``build_parser``;
    ``_read_args`` reads the same options with the same defaults."""
    parser.add_argument("--input", required=True, help="path to a JSON input file")
    if levels:
        parser.add_argument("--levels", default=None,
                            help="comma-separated strictly increasing levels")
    parser.add_argument("--seed", type=int, default=0)
    if tol:
        parser.add_argument("--tol", default="1/20",
                            help="agreement tolerance as an exact rational, e.g. 1/20")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser: every subcommand with its options.

    ``main`` builds it only for a request that ``_read_args`` does not
    read, so that usage, help and error messages are argparse's own.
    """
    formatter = _help_formatter()
    parser = argparse.ArgumentParser(
        prog="oredim",
        description="Exact dimension functions for modules over group rings "
                    "of Z^d, the infinite dihedral group, and the Heisenberg group.",
        formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, levels, tol) in COMMANDS.items():
        _add_options(sub.add_parser(name, help=summary, formatter_class=formatter),
                     levels, tol)
    return parser


def _read_args(argv: List[str]) -> Optional[argparse.Namespace]:
    """The namespace of a well-formed request, as the full parser gives it,
    or None for any other argv.

    Well-formed: a subcommand, then ``--name value`` pairs whose names are
    exactly that subcommand's options and whose values do not start with
    ``-``, with ``--input`` among them.  Each ``--seed`` must be an int and
    each ``--format`` csv or json; a repeated option keeps its last value,
    as in argparse.
    """
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    _, levels, tol = COMMANDS[argv[0]]
    args = {"input": None, "seed": 0, "out": None, "format": "csv"}
    if levels:
        args["levels"] = None
    if tol:
        args["tol"] = "1/20"
    for name, value in zip(argv[1::2], argv[2::2]):
        key = name[2:]
        if not name.startswith("--") or key not in args or value.startswith("-"):
            return None
        if key == "seed":
            try:
                value = int(value)
            except ValueError:
                return None
        elif key == "format" and value not in ("csv", "json"):
            return None
        args[key] = value
    if args["input"] is None:
        return None
    return argparse.Namespace(command=argv[0], **args)


def _parse_args(argv: List[str]) -> argparse.Namespace:
    """The parsed command line, as ``build_parser().parse_args(argv)`` gives it;
    the full parser is built only for a request ``_read_args`` does not read."""
    args = _read_args(argv)
    return build_parser().parse_args(argv) if args is None else args


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
    args = _parse_args(argv)
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
