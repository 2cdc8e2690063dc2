"""Command-line interface.

Exit codes separate mathematical results from operational failures: a "not
embeddable" verdict exits 0 (it is an answer), bad flags or arguments exit 2,
unreadable or invalid input files or group specs and output files that cannot
be written exit 3, a search that exhausts its node budget exits 4, and
``verify-paper`` exits 1 when any criterion fails.  Exits 2, 3 and 4 print
one ``error:`` line on stderr.

Each ``cmd_*`` only computes; ``main`` times it, reports it and maps its
errors to exit codes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from . import __version__, verify
from .embed import SearchLimitExceeded, count_embeddings, embed_diagonal_partition, find_embedding
from .groups import format_group_file, groups_of_order, parse_group_spec
from .pls import canonical_form, enumerate_species, format_species_file, parse_pls
from .screening import psi, screen_size

RUN_REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "inputs", "results", "timing_ms", "version"],
    "properties": {
        "command": {"type": "string"},
        "inputs": {"type": "object"},
        "results": {"type": "object"},
        "timing_ms": {"type": "number"},
        "version": {"type": "string"},
    },
    "additionalProperties": False,
}

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_SEARCH_LIMIT = 4


class _ParseFailure(Exception):
    """An input that cannot be read or parsed, or an output that cannot be
    written: exit 3."""


class _Outcome(NamedTuple):
    """A command's report inputs and results, its text lines and exit code."""

    inputs: dict
    results: dict
    lines: list[str]
    code: int = EXIT_OK


def _load_pls(path: str, fmt: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _ParseFailure(f"cannot read {path}: {exc}") from exc
    try:
        return parse_pls(text, fmt)
    except ValueError as exc:
        raise _ParseFailure(f"cannot parse square from {path}: {exc}") from exc


def _load_group(spec: str):
    try:
        return parse_group_spec(spec)
    except (ValueError, OSError) as exc:
        raise _ParseFailure(f"cannot build group from {spec!r}: {exc}") from exc


def cmd_species(args) -> _Outcome:
    levels = enumerate_species(args.max_size)
    counts = {m: len(reps) for m, reps in levels.items()}
    lines = [f"size {m}: {counts[m]} species" for m in sorted(counts)]
    written = {}
    if args.out:
        outdir = Path(args.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            for m, reps in levels.items():
                path = outdir / f"species_{m}.pls"
                path.write_text(format_species_file(reps), encoding="utf-8")
                written[str(m)] = str(path)
        except OSError as exc:
            raise _ParseFailure(f"cannot write {args.out}: {exc}") from exc
        lines.append(f"wrote {len(written)} files to {outdir}")
    return _Outcome(
        {"max_size": args.max_size, "out": args.out},
        {"counts": {str(m): c for m, c in counts.items()}, "files": written},
        lines,
    )


def cmd_embed(args) -> _Outcome:
    p = _load_pls(args.pls, args.format)
    g = _load_group(args.group)
    results: dict = {"group": g.name, "pls_size": p.size, "species_key": canonical_form(p).hex()}
    lines = []
    if args.count:
        n = count_embeddings(p, g)
        results["count"] = n
        lines.append(f"{n} embeddings of the square in {g.name}")
    else:
        verdict = find_embedding(p, g, paranoid=args.paranoid)
        results["embeddable"] = verdict.embeddable
        results["method"] = verdict.method
        if verdict.embeddable:
            lines.append(f"embeddable in {g.name} (method: {verdict.method})")
            if verdict.witness is not None:
                results["witness"] = verdict.witness.to_json()
                lines.append(verdict.witness.to_text())
        else:
            results["obstruction"] = verdict.obstruction
            lines.append(f"not embeddable in {g.name} (obstruction: {verdict.obstruction})")
    inputs = {"pls": args.pls, "group": args.group, "count": args.count, "paranoid": args.paranoid}
    return _Outcome(inputs, results, lines)


def cmd_screen(args) -> _Outcome:
    survivors = screen_size(args.size, args.n)
    lines = [f"{len(survivors)} survivors at size {args.size} for order {args.n}"]
    if args.verbose:
        for key in survivors:
            lines.append(key.hex())
    return _Outcome(
        {"size": args.size, "n": args.n},
        {"count": len(survivors), "species_keys": [k.hex() for k in survivors]},
        lines,
    )


def cmd_psi(args) -> _Outcome:
    groups = None
    if args.groups:
        groups = [
            _load_group(f"file:{path}") if Path(path).exists() else _load_group(path)
            for path in args.groups
        ]
    result = psi(args.n, args.variant, groups, assume_complete=args.assume_complete)
    lines = [f"psi({args.n}, {args.variant}) = {result.psi}"]
    lines.append(f"{len(result.obstacles)} obstacle species of size {result.psi + 1}:")
    for o in result.obstacles:
        lines.append(f"  key {o.species_key.hex()} certificate {o.certificate.get('kind')}")
    inputs = {
        "n": args.n,
        "variant": args.variant,
        "groups": args.groups or [],
        "assume_complete": args.assume_complete,
    }
    return _Outcome(inputs, result.to_json(), lines)


def cmd_groups(args) -> _Outcome:
    lines = []
    results: dict = {}
    if args.spec:
        g = _load_group(args.spec)
        info = {
            "name": g.name,
            "order": g.order,
            "abelian": g.abelian,
            "element_orders": sorted(g.element_orders),
        }
        results["group"] = info
        lines.append(f"{g.name}: order {g.order}, {'abelian' if g.abelian else 'non-abelian'}")
        if args.out:
            try:
                Path(args.out).write_text(format_group_file(g), encoding="utf-8")
            except OSError as exc:
                raise _ParseFailure(f"cannot write {args.out}: {exc}") from exc
            results["file"] = args.out
            lines.append(f"wrote table to {args.out}")
    else:
        cat = groups_of_order(args.order)
        results["groups"] = [
            {"name": g.name, "order": g.order, "abelian": g.abelian} for g in cat
        ]
        lines.append(f"{len(cat)} groups of order {args.order}:")
        for g in cat:
            lines.append(f"  {g.name} ({'abelian' if g.abelian else 'non-abelian'})")
    return _Outcome({"order": args.order, "spec": args.spec}, results, lines)


def cmd_diag_partition(args) -> _Outcome:
    g = _load_group(args.group)
    try:
        parts = [int(x) for x in args.partition.split(",") if x]
    except ValueError as exc:
        raise _ParseFailure(f"bad partition {args.partition!r}: {exc}") from exc
    ok, perm = embed_diagonal_partition(g, parts)
    lines = [f"partition {sorted(parts, reverse=True)} realisable in {g.name}: {ok}"]
    if ok:
        lines.append("permutation: " + " ".join(str(x) for x in perm))
    return _Outcome(
        {"group": args.group, "partition": parts},
        {"realisable": ok, "permutation": perm},
        lines,
    )


def cmd_verify_paper(args) -> _Outcome:
    results = verify.run_all(quick=args.quick, seed=args.seed)
    lines = []
    for res in results:
        lines.append(res.line())
        if res.detail:
            lines.append(f"  note: {res.detail}")
        if not res.passed:
            for c in res.failures():
                lines.append(f"  FAIL {c.case}" + (f": {c.note}" if c.note else ""))
    all_ok = all(r.passed for r in results)
    lines.append("all criteria passed" if all_ok else "some criteria FAILED")
    payload = {
        "criteria": [
            {
                "ident": r.ident,
                "title": r.title,
                "passed": r.passed,
                "cases": len(r.cases),
                "failures": [{"case": c.case, "note": c.note} for c in r.failures()],
                "detail": r.detail,
            }
            for r in results
        ],
        "passed": all_ok,
    }
    return _Outcome(
        {"quick": args.quick, "seed": args.seed},
        payload,
        lines,
        EXIT_OK if all_ok else EXIT_VERIFY_FAILED,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley-embed",
        description="Embeddings of partial latin squares into finite group Cayley tables.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("species", help="enumerate species representatives by size")
    sp.add_argument("--max-size", type=int, required=True)
    sp.add_argument("--out", help="directory for one triple-list file per size")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_species)

    em = sub.add_parser("embed", help="decide embeddability of a square in a group")
    em.add_argument("--pls", required=True, help="square file (triple list or grid)")
    em.add_argument("--group", required=True, help="group spec, e.g. cyclic:12, dihedral:6, abelian:2,6, file:PATH")
    em.add_argument("--format", choices=("auto", "triples", "grid"), default="auto")
    em.add_argument("--count", action="store_true", help="count all embeddings instead")
    em.add_argument("--paranoid", action="store_true", help="always search for a witness")
    em.add_argument("--json", action="store_true")
    em.set_defaults(fn=cmd_embed)

    sc = sub.add_parser("screen", help="survivors of the reduction screen at one size")
    sc.add_argument("--size", type=int, required=True)
    sc.add_argument("--n", type=int, required=True)
    sc.add_argument("--verbose", action="store_true")
    sc.add_argument("--json", action="store_true")
    sc.set_defaults(fn=cmd_screen)

    ps = sub.add_parser("psi", help="compute the embeddability threshold and obstacles")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--variant", choices=("group", "abelian", "cyclic"), default="group")
    ps.add_argument("--groups", nargs="*", help="table files forming the complete class")
    ps.add_argument("--assume-complete", action="store_true")
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(fn=cmd_psi)

    gr = sub.add_parser("groups", help="list the catalogue or build one group")
    gr.add_argument("--order", type=int, default=None)
    gr.add_argument("--spec", default=None)
    gr.add_argument("--out", help="write the Cayley table to this file")
    gr.add_argument("--json", action="store_true")
    gr.set_defaults(fn=cmd_groups)

    dp = sub.add_parser("diag-partition", help="realise a partition as diagonal products")
    dp.add_argument("--group", required=True)
    dp.add_argument("--partition", required=True, help="comma-separated parts, e.g. 3,9")
    dp.add_argument("--json", action="store_true")
    dp.set_defaults(fn=cmd_diag_partition)

    vp = sub.add_parser("verify-paper", help="run the acceptance suite")
    vp.add_argument("--quick", action="store_true", help="restrict to orders <= 8 and sizes <= 6")
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--json", action="store_true")
    vp.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "groups" and not args.spec and args.order is None:
        parser.error("groups needs --order or --spec")
    started = time.time()
    try:
        outcome = args.fn(args)
    except (_ParseFailure, ValueError) as exc:
        # every argument check in the library raises a ValueError subclass
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE if isinstance(exc, _ParseFailure) else EXIT_USAGE
    except SearchLimitExceeded as exc:
        print(f"error: search budget exhausted: {exc}", file=sys.stderr)
        return EXIT_SEARCH_LIMIT
    if args.json:
        report = {
            "command": args.command,
            "inputs": outcome.inputs,
            "results": outcome.results,
            "timing_ms": round((time.time() - started) * 1000.0, 3),
            "version": __version__,
        }
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in outcome.lines:
            print(line)
    return outcome.code


if __name__ == "__main__":
    raise SystemExit(main())
