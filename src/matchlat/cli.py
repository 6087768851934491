"""Command-line front end: generate, analyze, verify, export.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 size cap
exceeded, 4 internal error (any other exception; its traceback goes to
stderr).  All output is deterministic; repeated runs produce identical
bytes.

``analyze decompose`` reads the factors off the elementary components
(``ztransform.decomposition_by_components``) on every host whose
components' bounded faces are faces of the host, an elementary host among
them, and builds no lattice there; any other host (a face that is no
simple cycle, a component face that is no face of the host, no perfect
matching) takes the lattice route, with the same bytes and errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from itertools import chain, repeat
from operator import getitem
from typing import Optional, Sequence

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
from .generators import parse_spec, plain_int
from .lattice import central_elements, irreducible_decomposition, lattice_to_json
from .matching import enumerate_perfect_matchings
from .plane_graph import load_graph_file, oriented_dual
from .verify import run_suite
from .ztransform import (
    build_z_digraph,
    decomposition_by_components,
    face_poset_outerplane,
    matching_lattice,
)

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
    """A size cap from the command line: an integer of at least 1, spelt
    as :func:`~generators.plain_int` reads it."""
    try:
        if (value := plain_int(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        try:
            sys.stdout.write(text)
            sys.stdout.flush()  # so that a full disk shows here, not at exit
        except OSError as exc:
            # A failed flush keeps the text buffered, and the interpreter's
            # own flush at exit would fail on it again (exit 120): point the
            # descriptor at the null device so that flush succeeds.
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            raise ParseError(f"cannot write standard output: {exc}") from exc
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write output file: {exc}") from exc


# rows of one int-row payload filled by one ``%`` each: large enough that
# the C formatting dominates, small enough that no piece nears the
# payload's size (one piece for the whole payload raises the peak memory)
ROWS_PER_PIECE = 4096


@dataclass(frozen=True)
class IntTable:
    """A flat tuple of ints read as rows of ``width`` ints; ``_dump_json``
    writes it as the list of those rows, and no row is built as a tuple."""

    ints: tuple[int, ...]
    width: int


@dataclass(frozen=True)
class MaskRows:
    """Canonical edge masks, edge e at bit ``n_edges - 1 - e``;
    ``_dump_json`` writes each as the ascending list of its edge ids, and
    no edge id is built as an int."""

    masks: Sequence[int]
    n_edges: int


def _dump_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    with each :class:`IntTable` in obj read as the list of its rows and
    each :class:`MaskRows` as the list of its masks' edge-id rows.

    CPython encodes with ``indent`` in pure Python; this emitter gets the
    same bytes faster.  It recurses over dicts (keys sorted, every CLI
    payload has str keys) and over lists and tuples, and encodes every
    scalar with ``json.dumps``.  Three fast paths fill ``ROWS_PER_PIECE``
    rows at a time.  A list of non-empty int rows (matchings, covers) and
    an ``IntTable`` (arcs) take one ``%d`` template per row length,
    filled by one ``%`` of the piece's template with its flat ints.
    ``MaskRows`` (the flip digraph's matchings) are written byte by byte
    of each mask, through tables of pre-formatted cells
    (:func:`_mask_rows`).  Every piece goes to one list, joined once.

    It returns one ``str``, not the pieces or a generator: ``_emit`` writes
    it whole, and perfbench times ``_dump_json`` with ``_emit`` as its
    export span and counts ``len`` of ``_emit``'s argument as the bytes
    written, which a generator would break and a list would miscount.
    """
    pieces: list[str] = []
    _indented(obj, "\n", pieces)
    pieces.append("\n")
    return "".join(pieces)


def _indented(obj, inner: str, out: list[str]) -> None:
    """Append obj as indented JSON to out; ``inner`` is the newline and
    indent of its level."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        deeper = inner + "  "
        sep = "{" + deeper
        for k, v in sorted(obj.items()):
            out.append(sep + json.dumps(k) + ": ")
            _indented(v, deeper, out)
            sep = "," + deeper
        out.append(inner + "}")
        return
    if isinstance(obj, IntTable):
        _int_rows(obj.ints, obj.width, inner, out)
        return
    if isinstance(obj, MaskRows):
        _mask_rows(obj.masks, obj.n_edges, inner, out)
        return
    if not isinstance(obj, (list, tuple)):
        out.append(json.dumps(obj))
        return
    if (
        set(map(type, obj)) <= {list, tuple}
        and all(obj)
        and set(map(type, chain.from_iterable(obj))) == {int}
    ):
        _int_rows(obj, None, inner, out)
        return
    if not obj:
        out.append("[]")
        return
    deeper = inner + "  "
    between = "," + deeper
    out.append("[" + deeper)
    for i, v in enumerate(obj):
        if i:
            out.append(between)
        _indented(v, deeper, out)
    out.append(inner + "]")


def _int_rows(rows, width: Optional[int], inner: str, out: list[str]) -> None:
    """Append int rows as one indented JSON list to out: ``rows`` is a list
    of non-empty int rows when ``width`` is None, and otherwise a flat
    tuple of ints, ``width`` to a row."""
    n = len(rows) if width is None else len(rows) // width
    if not n:
        out.append("[]")
        return
    deeper = inner + "  "
    cell = deeper + "  "
    between = "," + deeper
    lengths = set(map(len, rows)) if width is None else {width}
    row = {
        k: "[" + cell + ("%d," + cell) * (k - 1) + "%d" + deeper + "]"
        for k in lengths
    }
    out.append("[" + deeper)
    for start in range(0, n, ROWS_PER_PIECE):
        stop = min(start + ROWS_PER_PIECE, n)
        if width is None:
            piece = rows[start:stop]
            sizes, ints = map(len, piece), tuple(chain.from_iterable(piece))
        else:
            sizes = repeat(width, stop - start)
            ints = rows[start * width:stop * width]
        if start:
            out.append(between)
        out.append(between.join([row[k] for k in sizes]) % ints)
    out.append(inner + "]")


def _mask_rows(masks: Sequence[int], n_edges: int, inner: str, out: list[str]) -> None:
    """Append canonical edge masks as one indented JSON list of their
    ascending edge ids to out.

    Each mask is shifted left to a whole number of bytes, so that edge e
    sits in byte e // 8 of its big-endian bytes, at bit 7 - e % 8.  Byte
    k's table maps each byte value to its edges' cells, ``"," + newline,
    indent, id`` each, in ascending order; a row is its bytes' cells
    joined, less the first comma.  A zero mask is ``[]``.
    """
    if not masks:
        out.append("[]")
        return
    deeper = inner + "  "
    cell = "," + deeper + "  "
    between = "," + deeper
    close = deeper + "]"
    nb = (n_edges + 7) // 8
    pad = 8 * nb - n_edges
    tables = []
    for k in range(0, 8 * nb, 8):
        table = [""]  # indexed by the bits of the byte's edges before e
        for e in range(k, k + 8):
            on = cell + str(e)
            table = [t + x for t in table for x in ("", on)]
        tables.append(table)
    out.append("[" + deeper)
    for start in range(0, len(masks), ROWS_PER_PIECE):
        if start:
            out.append(between)
        out.append(between.join([
            "[" + "".join(map(getitem, tables, (m << pad).to_bytes(nb, "big")))[1:]
            + close if m else "[]"
            for m in masks[start:start + ROWS_PER_PIECE]
        ]))
    out.append(inner + "]")


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
            _emit(f"{Z.n} matchings, {len(Z.arc_table) // 3} flip arcs\n", args.out)
        else:
            _emit(
                _dump_json(
                    {
                        "matchings": MaskRows(Z.masks, Z.n_edges),
                        "arcs": IntTable(Z.arc_table, 3),
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
        # the theorem route; the lattice route on the hosts it declines
        answer = decomposition_by_components(G)
        if answer is None:
            L = matching_lattice(G)
            dec = irreducible_decomposition(L)
            answer = (
                L.n,
                [F.n for F in dec.factors] or [1],
                [list(map(int, dec.product_iso[x])) for x in central_elements(L)],
            )
        size, factors, central = answer
        if fmt == "text":
            lines = [
                f"{len(factors)} irreducible factor(s) of sizes "
                + ", ".join(map(str, factors)),
                f"central elements: {len(central)}",
            ]
            _emit("\n".join(lines) + "\n", args.out)
        else:
            _emit(
                _dump_json(
                    {"lattice_size": size, "factors": factors, "central_elements": central}
                ),
                args.out,
            )
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
