"""Command-line front end: generate, analyze, verify, export.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 size cap
exceeded, 4 internal error (any other exception; its traceback goes to
stderr).  All output is deterministic; repeated runs produce identical
bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from typing import Optional

from .caps import DEFAULT_CAPS, SizeCaps
from .errors import MatchlatError, ParseError, SizeCapExceeded
from .export import (
    dual_to_dot,
    graph_to_dot,
    lattice_to_dot,
    matchings_to_json,
    poset_to_dot,
    zdigraph_to_dot,
)
from .generators import parse_spec
from .lattice import central_elements, irreducible_decomposition, lattice_to_json
from .matching import enumerate_perfect_matchings
from .plane_graph import load_graph_file, oriented_dual
from .verify import run_suite
from .ztransform import build_z_digraph, face_poset_outerplane, matching_lattice

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _caps_from_args(args) -> SizeCaps:
    return SizeCaps(
        max_vertices=args.cap_vertices,
        max_inner_faces=args.cap_inner_faces,
        max_matchings=args.cap_matchings,
    )


def _cap(text: str) -> int:
    """A size cap from the command line: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write output file: {exc}") from exc


def _dump_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    CPython encodes with ``indent`` in pure Python; this emitter gets the
    same bytes faster.  It recurses over dicts (keys sorted, every CLI
    payload has str keys) and over lists and tuples, and encodes every
    scalar with ``json.dumps``.  A list of non-empty int rows (matchings,
    arcs, covers) takes a fast path: it goes once through the C encoder,
    whose row breaks one ``str.replace`` indents.
    """
    return _indented(obj, "\n") + "\n"


def _indented(obj, inner: str) -> str:
    """obj as indented JSON; ``inner`` is the newline and indent of its level."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        deeper = inner + "  "
        return (
            "{" + deeper
            + ("," + deeper).join(
                json.dumps(k) + ": " + _indented(v, deeper)
                for k, v in sorted(obj.items())
            )
            + inner + "}"
        )
    if not isinstance(obj, (list, tuple)):
        return json.dumps(obj)
    if not obj:
        return "[]"
    deeper = inner + "  "
    if (
        set(map(type, obj)) <= {list, tuple}
        and all(obj)
        and set(map(type, chain.from_iterable(obj))) == {int}
    ):
        # compact rows with the element break as separator, then split rows
        cell = deeper + "  "
        flat = json.dumps(obj, separators=("," + cell, ":"))
        body = "[" + cell + flat[2:-2].replace(
            "]," + cell + "[", deeper + "]," + deeper + "[" + cell
        ) + deeper + "]"
    else:
        body = ("," + deeper).join(_indented(v, deeper) for v in obj)
    return "[" + deeper + body + inner + "]"


def cmd_generate(args) -> int:
    caps = _caps_from_args(args)
    built = parse_spec(args.spec, caps)
    _emit(_dump_json(built.graph.to_json()), args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    caps = _caps_from_args(args)
    G = load_graph_file(args.graph, caps)
    target = args.target
    fmt = args.format

    if target == "matchings":
        ms = enumerate_perfect_matchings(G)
        if fmt == "text":
            _emit(f"{len(ms)} perfect matchings\n", args.out)
        else:
            _emit(
                _dump_json({"count": len(ms), "matchings": matchings_to_json(ms)}),
                args.out,
            )
    elif target == "zdig":
        Z = build_z_digraph(G)
        if fmt == "dot":
            _emit(zdigraph_to_dot(Z), args.out)
        elif fmt == "text":
            _emit(f"{Z.n} matchings, {len(Z.arcs)} flip arcs\n", args.out)
        else:
            _emit(
                _dump_json(
                    {
                        "matchings": matchings_to_json(Z.matchings),
                        "arcs": Z.arcs,
                    }
                ),
                args.out,
            )
    elif target == "lattice":
        L = matching_lattice(G)
        if fmt == "dot":
            _emit(lattice_to_dot(L), args.out)
        elif fmt == "text":
            _emit(f"distributive lattice on {L.n} matchings\n", args.out)
        else:
            _emit(_dump_json(lattice_to_json(L)), args.out)
    elif target == "decompose":
        L = matching_lattice(G)
        dec = irreducible_decomposition(L)
        payload = {
            "lattice_size": L.n,
            "factors": [F.n for F in dec.factors] or [1],
            "central_elements": [
                list(map(int, dec.product_iso[x])) for x in central_elements(L)
            ],
        }
        if fmt == "text":
            lines = [
                f"{len(dec.factors) or 1} irreducible factor(s) of sizes "
                + ", ".join(str(F.n) for F in dec.factors or [L]),
                f"central elements: {len(payload['central_elements'])}",
            ]
            _emit("\n".join(lines) + "\n", args.out)
        else:
            _emit(_dump_json(payload), args.out)
    elif target == "faceposet":
        F = face_poset_outerplane(G)
        if fmt == "dot":
            _emit(poset_to_dot(F), args.out)
        else:
            _emit(_dump_json(F.to_json()), args.out)
    elif target == "dual":
        D = oriented_dual(G, include_outer=not args.inner_only)
        if fmt == "dot":
            _emit(dual_to_dot(D, outer_face=G.outer_face), args.out)
        else:
            _emit(
                _dump_json(
                    {
                        "nodes": list(D.nodes),
                        "arcs": [[a.src, a.dst, a.edge_id] for a in D.arcs],
                    }
                ),
                args.out,
            )
    elif target == "graph":
        if fmt == "dot":
            _emit(graph_to_dot(G), args.out)
        else:
            _emit(_dump_json(G.to_json()), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    caps = _caps_from_args(args)
    report = run_suite(args.suite, caps)
    if args.format == "json":
        _emit(_dump_json(report.to_json()), args.out)
    else:
        _emit(report.to_text() + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchlat",
        description=(
            "Distributive lattices on the perfect matchings of plane "
            "bipartite graphs: generate witness graphs, analyze their flip "
            "structure, and run the exhaustive verification suites."
        ),
    )
    parser.add_argument("--cap-vertices", type=_cap, default=DEFAULT_CAPS.max_vertices)
    parser.add_argument(
        "--cap-inner-faces", type=_cap, default=DEFAULT_CAPS.max_inner_faces
    )
    parser.add_argument(
        "--cap-matchings", type=_cap, default=DEFAULT_CAPS.max_matchings
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a witness graph from a spec string")
    gen.add_argument("spec", help='e.g. "L(3,2,1)", "P(2,2)", "T(3)", "tree:1>2,1>3"')
    gen.add_argument("--out", default=None)
    gen.set_defaults(fn=cmd_generate)

    ana = sub.add_parser("analyze", help="analyze a JSON graph file")
    ana.add_argument("graph")
    ana.add_argument(
        "target",
        choices=["matchings", "zdig", "lattice", "decompose", "faceposet",
                 "dual", "graph"],
    )
    ana.add_argument("--format", choices=["json", "dot", "text"], default="json")
    ana.add_argument("--inner-only", action="store_true",
                     help="restrict the dual to inner faces")
    ana.add_argument("--out", default=None)
    ana.set_defaults(fn=cmd_analyze)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument(
        "suite",
        choices=["core", "parallelogram", "outerplane", "decomposition", "all"],
    )
    ver.add_argument("--format", choices=["json", "text"], default="text")
    ver.add_argument("--out", default=None)
    ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MatchlatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        import traceback  # kept off start-up: only this path needs it
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
