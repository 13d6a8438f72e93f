"""Command-line interface.

Exit codes: 0 on success, 1 on a failed validation or a failed
comparison (strict validation, catalog mismatch, oracle mismatch),
2 on parse or structural errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import NoReturn

from .catalog import catalog, catalog_entry, run_entry
from .documents import ParseError, format_pi, parse, serialize_report
from .oracle import enumerate_torsion, structure_match
from .spherical import ValidationError, _require_pass, full_report, validate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse(text)


def _cmd_compute(args: argparse.Namespace) -> int:
    sd = _load(args.file)
    if args.p is not None:
        sd = sd.with_char_exponent(args.p)
    report = full_report(sd)
    if args.strict:
        _require_pass(report.validation)
    sys.stdout.write(serialize_report(report, format=args.format))
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    sd = _load(args.file)
    outcomes = validate(sd)
    for o in outcomes:
        print(f"[{o.level}] {o.check}: {o.message}")
    if args.strict:
        _require_pass(outcomes)
    return EXIT_OK


def _print_entry_runs(name: str, runs) -> bool:
    all_ok = True
    for run in runs:
        line = f"{name} p={run.p} pi0={format_pi(run.pi0)} pi1={format_pi(run.pi1)}"
        if run.ok:
            line += " ok"
        else:
            line += (
                f" MISMATCH (expected pi0={format_pi(run.expected_pi0)}"
                f" pi1={format_pi(run.expected_pi1)})"
            )
            all_ok = False
        print(line)
    return all_ok


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.action != "run" and args.name is not None:
        raise ValueError(f"catalog {args.action} takes no entry name")
    if args.action == "list":
        for entry in catalog():
            print(entry.name)
        return EXIT_OK
    if args.action == "run":
        if args.name is None:
            raise ValueError("catalog run requires an entry name")
        entry = catalog_entry(args.name)
        ok = _print_entry_runs(entry.name, run_entry(entry))
        return EXIT_OK if ok else EXIT_VALIDATION
    # run-all
    all_ok = True
    for entry in catalog():
        all_ok &= _print_entry_runs(entry.name, run_entry(entry))
    return EXIT_OK if all_ok else EXIT_VALIDATION


def _cmd_oracle(args: argparse.Namespace) -> int:
    sd = _load(args.file)
    sample = enumerate_torsion(sd.colors, args.torsion)
    predicted = full_report(sd).saturation_quotient
    result = structure_match(sample, predicted, args.torsion)
    print(f"torsion modulus: {args.torsion}")
    print(f"elements: {len(sample.elements)}")
    for order in sorted(sample.order_histogram):
        print(f"order {order}: {sample.order_histogram[order]}")
    if result.ok:
        print("structure match: yes")
        return EXIT_OK
    print("structure match: NO")
    for line in result.mismatches:
        print(f"  {line}")
    return EXIT_VALIDATION


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach :func:`main`'s handler,
    which prints them as one ``error:`` line and exits 2."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spherical-pi",
        description=(
            "Prime-to-p parts of component and fundamental groups of "
            "spherical homogeneous spaces, from lattice data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute the full report for a document")
    compute.add_argument("file")
    compute.add_argument("--p", type=int, default=None, help="override the document's p")
    compute.add_argument("--strict", action="store_true")
    compute.add_argument("--format", choices=("text", "structured"), default="text")
    compute.set_defaults(func=_cmd_compute)

    val = sub.add_parser("validate", help="run validation checks on a document")
    val.add_argument("file")
    val.add_argument("--strict", action="store_true")
    val.set_defaults(func=_cmd_validate)

    cat = sub.add_parser("catalog", help="list or run the built-in examples")
    cat.add_argument("action", choices=("list", "run", "run-all"))
    cat.add_argument("name", nargs="?", default=None)
    cat.set_defaults(func=_cmd_catalog)

    orc = sub.add_parser(
        "oracle", help="enumerate torsion of a document's color saturation"
    )
    orc.add_argument("file")
    orc.add_argument("--torsion", type=int, required=True, metavar="N")
    orc.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
