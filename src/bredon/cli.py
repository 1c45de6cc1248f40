"""Command line front end.

Subcommands:

``cohomology``  fold the blocks and print the cohomology table
``ktheory``     cohomology, K-theory, homology and K-homology report
``e2``          the derived-functor page of every fold
``verify``      run oracle and collapse certificates and report them
``blocks``      list the catalog blocks

Exit codes: 0 success, 1 usage, 2 parse or validation failure,
3 computation failure (including a failed certificate on a strict run).
Machine reports are deterministic: fixed key order, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .complexes import builtin_block, builtin_block_names, builtin_block_summary
from .intlinalg import FgAbGroup
from .ktheory import FullReport, full_report
from .pullback import PullbackError, PullbackRun, run_pullback
from .specfile import SpecDocument, SpecParseError, parse_spec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_COMPUTE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _group_json(g: FgAbGroup) -> dict:
    return {"free_rank": g.free_rank,
            "invariant_factors": list(g.invariant_factors)}


def _table_json(table) -> dict:
    return {str(d): _group_json(table.group(d)) for d in table.degrees()}


def _homology_json(homology: dict) -> dict:
    return {str(d): _group_json(g) for d, g in sorted(homology.items())}


def _comparison_json(cmp) -> dict:
    return {
        "label": cmp.label,
        "ok": cmp.ok,
        "ranks_ok": cmp.ranks_ok,
        "degrees": {
            str(d): {"tensor": _group_json(t), "complex": _group_json(c),
                     "equal": t == c}
            for d, t, c in zip(cmp.degrees, cmp.tensor_groups, cmp.complex_groups)
        },
    }


def _certificates_json(run: PullbackRun) -> dict:
    folds = []
    for rec in run.folds:
        item = {"fold": rec.index, "block": rec.block_name}
        if rec.e2 is not None:
            item["collapse_ok"] = rec.collapse_ok
            item["nonzero_rows"] = [
                {"p": p, "q": q, "group": _group_json(g)}
                for p, q, g in rec.collapse_failures]
        if rec.oracle is not None:
            item["oracle"] = _comparison_json(rec.oracle)
        folds.append(item)
    return {"folds": folds,
            "pair_oracles": [_comparison_json(c) for c in run.pair_oracles]}


def _e2_json(run: PullbackRun) -> list:
    out = []
    for rec in run.folds:
        entries = {}
        if rec.e2 is not None:
            for (p, q), g in sorted(rec.e2.entries.items()):
                entries[f"{p},{q}"] = _group_json(g)
        out.append({"fold": rec.index, "block": rec.block_name,
                    "entries": entries})
    return out


def _render_table_human(table, lines: list) -> None:
    degrees = table.degrees()
    top = max(degrees) if degrees else 0
    for d in range(top + 1):
        lines.append(f"  H^{d} = {table.group(d)}")


def _emit(payload: dict, human_lines: list, fmt: str, output: Optional[str]) -> None:
    if fmt == "machine":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(human_lines) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


class SpecFileError(Exception):
    """The specification file could not be read at all."""


def _load_document(path: str) -> SpecDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file: {exc}")
    return parse_spec(text)


def _run_command(args) -> int:
    doc = _load_document(args.spec)
    fmt = args.format or doc.options.format
    output = args.output or doc.options.output

    oracle = True if args.oracle else None
    full_oracle = True if args.full_product_oracle else None
    tor_depth = args.tor_depth
    if args.command == "verify":
        # verify always runs the oracle and collapse certificate families
        oracle = True
    if (args.command in ("verify", "e2") and tor_depth is None
            and doc.options.tor_depth == 0):
        tor_depth = 2

    spec = doc.to_pullback_spec(oracle=oracle, full_product_oracle=full_oracle,
                                tor_depth=tor_depth)

    payload = {"command": args.command,
               "point_group_order": doc.point_group.order,
               "blocks": doc.block_names()}
    lines = [f"blocks: {', '.join(doc.block_names())} "
             f"(point group order {doc.point_group.order})"]

    if args.command == "cohomology":
        run = run_pullback(spec)
        _check_strict(run)
        payload["cohomology"] = _table_json(run.final)
        payload["certificates"] = _certificates_json(run)
        lines.append("Bredon cohomology of the pullback:")
        _render_table_human(run.final, lines)
        _render_certificates_human(run, lines)
        _emit(payload, lines, fmt, output)
        return EXIT_OK

    if args.command == "ktheory":
        report = full_report(spec)
        _check_strict(report.run)
        payload.update(_report_json(report))
        _render_report_human(report, lines)
        _emit(payload, lines, fmt, output)
        return EXIT_OK

    if args.command == "e2":
        run = run_pullback(spec)
        payload["e2"] = _e2_json(run)
        lines.append(f"derived pages per fold (depth {spec.tor_depth}):")
        if not run.folds:
            lines.append("  no folds (single block)")
        for rec in run.folds:
            lines.append(f"  fold {rec.index} (+{rec.block_name}):")
            if rec.e2 is None or not rec.e2.entries:
                lines.append("    all entries zero")
                continue
            for (p, q), g in sorted(rec.e2.entries.items()):
                lines.append(f"    (p={p}, q={q}) = {g}")
        _emit(payload, lines, fmt, output)
        return EXIT_OK

    if args.command == "verify":
        run = run_pullback(spec)
        payload["certificates"] = _certificates_json(run)
        ok = (run.all_pair_oracles_ok() and run.all_fold_oracles_ok()
              and run.all_collapse_ok())
        payload["ok"] = ok
        lines.append("certificates:")
        if not run.folds and not run.pair_oracles:
            lines.append("  single block: nothing to certify")
        _render_certificates_human(run, lines)
        lines.append(f"verdict: {'all checks passed' if ok else 'checks FAILED'}")
        _emit(payload, lines, fmt, output)
        return EXIT_OK if ok else EXIT_COMPUTE

    raise AssertionError(f"unhandled command {args.command}")


def _check_strict(run: PullbackRun) -> None:
    """Enforce requested certificates for the computing commands."""
    failures = run.failures()
    if failures:
        raise failures[0]


def _report_json(report: FullReport) -> dict:
    return {
        "cohomology": _table_json(report.cohomology),
        "k_theory": {
            "k0": _group_json(report.k_theory.k0),
            "k1": _group_json(report.k_theory.k1),
            "collapsed": report.k_theory.collapsed,
        },
        "bredon_homology": _homology_json(report.homology),
        "k_homology": {
            "k0": _group_json(report.k_homology.k0),
            "k1": _group_json(report.k_homology.k1),
            "collapsed": report.k_homology.collapsed,
        },
        "assumptions": list(report.assumptions),
        "notes": list(report.notes),
        "certificates": _certificates_json(report.run),
    }


def _render_certificates_human(run: PullbackRun, lines: list) -> None:
    for rec in run.folds:
        if rec.e2 is not None:
            status = "ok" if rec.collapse_ok else "FAILED"
            lines.append(f"  collapse at fold {rec.index} (+{rec.block_name}): "
                         f"{status}")
            for p, q, g in rec.collapse_failures:
                lines.append(f"    row p={p}, q={q}: {g}")
        if rec.oracle is not None:
            status = "ok" if rec.oracle.ok else "FAILED"
            lines.append(f"  oracle at fold {rec.index} (+{rec.block_name}): "
                         f"{status}")
            for d, t, c in rec.oracle.mismatches():
                lines.append(f"    degree {d}: tensor {t} vs complex {c}")
    for cmp in run.pair_oracles:
        status = "ok" if cmp.ok else "FAILED"
        lines.append(f"  oracle for {cmp.label}: {status}")
        for d, t, c in cmp.mismatches():
            lines.append(f"    degree {d}: tensor {t} vs complex {c}")


def _render_report_human(report: FullReport, lines: list) -> None:
    lines.append("Bredon cohomology:")
    _render_table_human(report.cohomology, lines)
    kt = report.k_theory
    lines.append("equivariant K-theory"
                 + (" (collapsed):" if kt.collapsed else " (bounds only):"))
    lines.append(f"  K^0 = {kt.k0}")
    lines.append(f"  K^1 = {kt.k1}")
    lines.append("Bredon homology (universal coefficients):")
    for d, g in sorted(report.homology.items()):
        lines.append(f"  H_{d} = {g}")
    kh = report.k_homology
    lines.append("equivariant K-homology"
                 + (" (collapsed):" if kh.collapsed else " (bounds only):"))
    lines.append(f"  K_0 = {kh.k0}")
    lines.append(f"  K_1 = {kh.k1}")
    lines.append("assumptions:")
    for a in report.assumptions:
        lines.append(f"  - {a}")
    for note in report.notes:
        lines.append(f"note: {note}")
    _render_certificates_human(report.run, lines)


def _blocks_command(args) -> int:
    payload = {"command": "blocks", "blocks": []}
    lines = ["catalog blocks:"]
    for name in builtin_block_names():
        block = builtin_block(name)
        cells = {str(d): list(block.cells[d]) for d in range(block.dimension + 1)}
        payload["blocks"].append({
            "name": name,
            "point_group_order": block.point_group.order,
            "dimension": block.dimension,
            "cells": cells,
            "summary": builtin_block_summary(name),
        })
        lines.append(f"  {name}: {builtin_block_summary(name)}")
        for d in range(block.dimension + 1):
            lines.append(f"    degree {d} isotropy orders: "
                         f"{', '.join(map(str, block.cells[d]))}")
    _emit(payload, lines, args.format or "human", args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bredon",
                     description="exact Bredon cohomology and equivariant "
                                 "K-theory for iterated pullbacks over a "
                                 "cyclic point group")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_spec=True):
        if needs_spec:
            p.add_argument("spec", help="path to a JSON specification file")
            p.add_argument("--oracle", action="store_true",
                           help="check the pairwise product-complex oracle")
            p.add_argument("--full-product-oracle", action="store_true",
                           dest="full_product_oracle",
                           help="check the accumulated product complex at "
                                "every fold")
            p.add_argument("--tor-depth", type=int, default=None,
                           dest="tor_depth", metavar="N",
                           help="compute derived rows up to depth N at "
                                "every fold")
        p.add_argument("--format", choices=("human", "machine"), default=None,
                       help="report format (default from the spec file)")
        p.add_argument("--output", metavar="PATH", default=None,
                       help="write the report to PATH instead of stdout")

    for name, text in (
            ("cohomology", "compute the folded cohomology table"),
            ("ktheory", "compute K-theory and K-homology"),
            ("e2", "print the derived-functor page of every fold"),
            ("verify", "run all certificates and report them")):
        add_common(sub.add_parser(name, help=text))
    add_common(sub.add_parser("blocks", help="list catalog blocks"),
               needs_spec=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "blocks":
            return _blocks_command(args)
        return _run_command(args)
    except SpecFileError as exc:
        _emit_error(str(exc), "usage", args)
        return EXIT_USAGE
    except SpecParseError as exc:
        _emit_error(str(exc), "parse", args)
        return EXIT_PARSE
    except PullbackError as exc:
        _emit_error(str(exc), "computation", args)
        return EXIT_COMPUTE
    except ValueError as exc:
        _emit_error(str(exc), "validation", args)
        return EXIT_PARSE


def _emit_error(message: str, kind: str, args) -> None:
    fmt = getattr(args, "format", None) or "human"
    if fmt == "machine":
        sys.stderr.write(json.dumps(
            {"error": {"kind": kind, "message": message}}, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"error ({kind}): {message}\n")


if __name__ == "__main__":
    raise SystemExit(main())
