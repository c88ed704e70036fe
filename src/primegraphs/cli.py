"""Command-line interface.

Subcommands: cd, graph, order, enum, product, verify, catalog.  Exit code
0 on success, 1 when a verification claim fails or stdout is closed before
the output is written, 2 on usage errors.
All output is deterministic for fixed arguments.

Commands do not catch errors.  They raise ValueError or OverflowError for
bad input, and KeyError for an unknown claim or catalog name; only `main`
turns these into an `error:` line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional, Sequence

from . import census, verify
from .groups import GroupSpec, character_degrees, group_order
from .prime_graph import PrimeGraph, graph_of, product_graph, structural_graph

# The bounds that `verify` takes as flags, with their defaults.  The seed
# has none: it fixes the product-join trials, so default output stays
# byte-stable.
_BOUND_FLAGS = tuple(
    (name, default) for name, default in verify.Bounds.DEFAULTS.items() if name != "seed"
)


def _print_graph(g: PrimeGraph, fmt: str) -> None:
    if fmt == "dot":
        sys.stdout.write(g.to_dot())
    elif fmt == "json":
        sys.stdout.write(g.to_json())
    else:
        sys.stdout.write(g.to_edgelist())


def _cmd_cd(args: argparse.Namespace) -> int:
    degrees = character_degrees(GroupSpec.parse(args.family, args.param))
    print(" ".join(str(d) for d in degrees))
    return 0


def _cmd_order(args: argparse.Namespace) -> int:
    print(group_order(GroupSpec.parse(args.family, args.param)))
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    spec = GroupSpec.parse(args.family, args.param)
    g = structural_graph(spec) if args.structural else graph_of(spec)
    _print_graph(g, args.format)
    return 0


def _cmd_product(args: argparse.Namespace) -> int:
    a = graph_of(GroupSpec.parse(args.family1, args.param1))
    b = graph_of(GroupSpec.parse(args.family2, args.param2))
    _print_graph(product_graph(a, b), args.format)
    return 0


def _cmd_enum(args: argparse.Namespace) -> int:
    for flag, c in (("--require-clique", args.require_clique),
                    ("--free-of-clique", args.free_of_clique)):
        if c is not None and c < 1:
            raise ValueError(f"{flag} must be at least 1, got {c}")
    result = census.enumerate_regular(args.n, args.k)
    if not result.parity_ok:
        print(f"no graphs: n*k = {args.n * args.k} is odd")
        return 0
    classes = list(result)
    if args.require_clique is not None:
        classes = [g for g in classes if census.contains_clique(g, args.require_clique)]
    if args.free_of_clique is not None:
        classes = [g for g in classes if not census.contains_clique(g, args.free_of_clique)]
    print(f"{len(classes)} classes of {args.k}-regular graphs on {args.n} vertices")
    for i, g in enumerate(classes):
        edge_text = " ".join(f"{p}-{q}" for p, q in g.edges())
        if args.stats:
            print(
                f"{i}: triangles={census.triangle_count(g)} "
                f"k4={'y' if census.contains_clique(g, 4) else 'n'} "
                f"k5={'y' if census.contains_clique(g, 5) else 'n'} "
                f"vertex-transitive={'y' if census.is_vertex_transitive(g) else 'n'} "
                f"edges: {edge_text}"
            )
        else:
            print(f"{i}: {edge_text}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    bounds = verify.Bounds(**{name: getattr(args, name) for name, _ in _BOUND_FLAGS})
    if args.only is not None:
        report = verify.Report((verify.run_one(args.only, bounds),))
    else:
        report = verify.run_all(bounds)
    sys.stdout.write(report.to_json() if args.json else report.to_table())
    return 0 if report.ok else 1


def _cmd_catalog(args: argparse.Namespace) -> int:
    cat = census.catalog()
    if args.name is not None:
        if args.name not in cat:
            raise KeyError(f"unknown catalog graph {args.name!r}")
        g = cat[args.name]
        edge_text = " ".join(f"{p}-{q}" for p, q in g.edges())
        print(f"{args.name}: n={g.n} edges: {edge_text}")
    else:
        for name in sorted(cat):
            g = cat[name]
            print(f"{name}: n={g.n} m={len(g.edges())}")
    return 0


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", help="psl2, suzuki, psl3, psu3, sporadic or alt")
    p.add_argument("param", help="prime power q (suzuki: q^2), degree n, or name")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one:
    building it costs far more than a parse.  Each subcommand's `fn` default
    binds its `_cmd_*` function at that first build, so replacing a `_cmd_*`
    attribute afterwards does not reach `main`."""
    parser = argparse.ArgumentParser(
        prog="primegraphs",
        description="Degree graphs of simple group families and small "
        "regular-graph censuses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cd", help="print the character degree set")
    _add_spec_args(p)
    p.set_defaults(fn=_cmd_cd)

    p = sub.add_parser("order", help="print the group order")
    _add_spec_args(p)
    p.set_defaults(fn=_cmd_order)

    p = sub.add_parser("graph", help="print the degree graph")
    _add_spec_args(p)
    p.add_argument("--format", choices=("dot", "json", "edgelist"), default="edgelist")
    p.add_argument(
        "--structural",
        action="store_true",
        help="use the family structure rule instead of the degree set",
    )
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("product", help="print the graph of a direct product")
    p.add_argument("family1")
    p.add_argument("param1")
    p.add_argument("family2")
    p.add_argument("param2")
    p.add_argument("--format", choices=("dot", "json", "edgelist"), default="edgelist")
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("enum", help="census of k-regular graphs on n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--require-clique", type=int, metavar="C")
    p.add_argument("--free-of-clique", type=int, metavar="C")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(fn=_cmd_enum)

    p = sub.add_parser("verify", help="run the claim suite")
    p.add_argument("--only", metavar="ID")
    p.add_argument("--json", action="store_true")
    for name, default in _BOUND_FLAGS:
        p.add_argument(f"--{name.replace('_', '-')}", type=int, default=default)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("catalog", help="list or show the named graphs")
    p.add_argument("name", nargs="?")
    p.set_defaults(fn=_cmd_catalog)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; normalize other codes too.
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`| head -1`).  Point stdout at
        # devnull so the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
