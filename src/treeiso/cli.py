"""Command-line front end: generate, profile, bounds, verify, paper-tables."""
from __future__ import annotations

import argparse
import sys

from .profile import DEFAULT_DP_CAP, compute_profile
from .report import FORMATS, analyze_tree, emit, sweep_rows, verify_suite
from .tree import (
    DEFAULT_MAX_VERTICES,
    TREE_FORMATS,
    TREE_KINDS,
    TreeFormatError,
    _decimal,
    generate_tree,
    parse_tree,
    serialize_tree,
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # TreeFormatError, GenerationError and SizeCapError are ValueErrors.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeiso",
        description="Exact isoperimetric profiles of rooted trees and the bounds they certify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a tree from a spec and write it to a file")
    gen.add_argument(
        "spec",
        metavar="KIND:K=V,...",
        help=f"KIND is one of {', '.join(TREE_KINDS)}; seed=S seeds the random kinds",
    )
    gen.add_argument("--max-vertices", type=_integer, default=DEFAULT_MAX_VERTICES)
    gen.add_argument("--format", choices=TREE_FORMATS, default="json")
    gen.add_argument("--out", default=None, help="output path (default: stdout)")
    gen.set_defaults(func=_cmd_generate)

    # Flags shared by the commands that run the DP and emit a report.
    report_flags = argparse.ArgumentParser(add_help=False)
    report_flags.add_argument("--dp-cap", type=_integer, default=DEFAULT_DP_CAP)
    report_flags.add_argument("--out", default=None)

    prof = sub.add_parser(
        "profile", parents=[report_flags], help="exact edge/vertex profiles of a tree file"
    )
    prof.add_argument("tree")
    prof.add_argument("--format", choices=FORMATS, default="csv")
    prof.set_defaults(func=_cmd_profile)

    bnd = sub.add_parser(
        "bounds", parents=[report_flags], help="full bounds report for a tree file"
    )
    bnd.add_argument("tree")
    bnd.add_argument("--format", choices=FORMATS, default="json")
    bnd.set_defaults(func=_cmd_bounds)

    ver = sub.add_parser(
        "verify", parents=[report_flags], help="run the verification suite over trees"
    )
    ver.add_argument("trees", nargs="*", help="tree files (json or parent-list)")
    ver.add_argument(
        "--gen",
        action="append",
        default=[],
        metavar="KIND:K=V,...",
        help="generated tree spec, repeatable (e.g. --gen complete_tary:t=2,d=3)",
    )
    ver.add_argument("--format", choices=FORMATS, default="json")
    ver.add_argument(
        "--seed",
        type=_integer,
        default=0,
        help="ignored: no output depends on it; accepted only because "
        "bench/workloads.py passes it, and removed once that stops",
    )
    ver.set_defaults(func=_cmd_verify)

    tables = sub.add_parser(
        "paper-tables", parents=[report_flags], help="peak/bound sweep over complete t-ary trees"
    )
    tables.add_argument("--format", choices=FORMATS, default="csv")
    tables.set_defaults(func=_cmd_tables)

    return parser


def _integer(text: str) -> int:
    """An integer flag value, under the rule of tree files and parameters."""
    value = _decimal(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return value


def _load_tree_file(path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    fmt = "json" if data.lstrip().startswith((b"{", b"[")) else "parent-list"
    return parse_tree(data, fmt)


def _parse_gen_spec(spec: str):
    """KIND:K=V,... as (kind, params, seed), the one grammar of generate and verify --gen."""
    kind, _, rest = spec.partition(":")
    params = {}
    for pair in filter(None, rest.split(",")):
        if "=" not in pair:
            raise ValueError(f"bad parameter {pair!r}, expected KEY=VALUE")
        key, _, text = pair.partition("=")
        key = key.strip()
        if key in params:
            raise ValueError(f"parameter {key!r} given twice")
        params[key] = _decimal(text)
        if params[key] is None:
            raise ValueError(f"parameter {key!r} must be an integer, got {text!r}")
    seed = params.pop("seed", 0)
    return kind, params, seed


def _cmd_generate(args) -> int:
    kind, params, seed = _parse_gen_spec(args.spec)
    tree = generate_tree(kind, params, seed=seed, max_vertices=args.max_vertices)
    data = serialize_tree(tree, args.format)
    if args.out is None or args.out == "-":
        sys.stdout.write(data.decode("utf-8"))
        if not data.endswith(b"\n"):
            sys.stdout.write("\n")
    else:
        with open(args.out, "wb") as fh:
            fh.write(data)
    return 0


def _cmd_profile(args) -> int:
    tree = _load_tree_file(args.tree)
    profile = compute_profile(tree, args.dp_cap)
    emit(profile, args.format, args.out)
    return 0


def _cmd_bounds(args) -> int:
    tree = _load_tree_file(args.tree)
    report = analyze_tree(tree, {"path": args.tree}, dp_cap=args.dp_cap)
    emit(report, args.format, args.out)
    return 0 if report["pass"] else 1


def _cmd_verify(args) -> int:
    if not args.trees and not args.gen:
        raise ValueError("verify needs at least one tree file or --gen spec")
    entries = []
    for path in args.trees:
        try:
            entries.append({"source": {"path": path}, "tree": _load_tree_file(path)})
        except (TreeFormatError, OSError) as exc:
            entries.append({"source": {"path": path}, "error": str(exc)})
    for spec in args.gen:
        try:
            kind, params, seed = _parse_gen_spec(spec)
            tree = generate_tree(kind, params, seed=seed, max_vertices=args.dp_cap)
            entries.append({"source": {"kind": kind, "params": params, "seed": seed}, "tree": tree})
        except ValueError as exc:
            entries.append({"source": {"spec": spec}, "error": str(exc)})
    result = verify_suite(entries, dp_cap=args.dp_cap)
    emit(result, args.format, args.out)
    return result["exit_status"]


def _cmd_tables(args) -> int:
    rows = sweep_rows(max_vertices=args.dp_cap)
    if not rows:
        raise ValueError(f"no swept tree has at most --dp-cap {args.dp_cap} vertices")
    emit(rows, args.format, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
