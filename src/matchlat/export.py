"""DOT and JSON emitters for graphs, duals, flip digraphs, and lattices."""

from __future__ import annotations

from typing import Optional, Sequence

from .lattice import FiniteLattice, FinitePoset
from .plane_graph import BLACK, DualDigraph, PlaneBipartiteGraph
from .ztransform import ZDigraph


def graph_to_dot(G: PlaneBipartiteGraph) -> str:
    """Undirected drawing; vertex fill encodes the 2-coloring."""
    lines = ["graph G {", "  node [shape=circle];"]
    for v in range(G.n_vertices):
        fill = "black" if G.colors[v] == BLACK else "white"
        font = "white" if G.colors[v] == BLACK else "black"
        lines.append(
            f'  v{v} [label="{v}", style=filled, fillcolor={fill}, fontcolor={font}];'
        )
    for eid, (u, v) in enumerate(G.edges):
        lines.append(f'  v{u} -- v{v} [label="e{eid}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dual_to_dot(D: DualDigraph, outer_face: Optional[int] = None) -> str:
    """Oriented (inner) dual; arcs carry the shared primal edge id."""
    lines = ["digraph dual {"]
    for f in D.nodes:
        shape = "doublecircle" if f == outer_face else "circle"
        lines.append(f'  f{f} [label="f{f}", shape={shape}];')
    for a in sorted(D.arcs, key=lambda a: a.edge_id):
        lines.append(f'  f{a.src} -> f{a.dst} [label="e{a.edge_id}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def zdigraph_to_dot(Z: ZDigraph) -> str:
    """Flip digraph with inner-face labels on the arcs."""
    lines = ["digraph flips {", "  node [shape=box];"]
    for i, M in enumerate(Z.matchings):
        label = ",".join(str(e) for e in M.edge_ids)
        lines.append(f'  m{i} [label="M{i}: {{{label}}}"];')
    it = iter(Z.arc_table)
    for a, b, f in zip(it, it, it):
        lines.append(f'  m{a} -> m{b} [label="f{f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_to_dot(P: FinitePoset) -> str:
    lines = ["digraph poset {", "  rankdir=BT;", "  node [shape=ellipse];"]
    for i, lab in enumerate(P.labels):
        lines.append(f'  p{i} [label="{lab}"];')
    for lo, hi in sorted(P.covers):
        lines.append(f"  p{lo} -> p{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def lattice_to_dot(L: FiniteLattice) -> str:
    """Hasse diagram; elements of equal rank share a rank group."""
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=ellipse];"]
    for i, lab in enumerate(L.labels):
        lines.append(f'  x{i} [label="{lab}"];')
    by_rank: dict[int, list[int]] = {}
    for i, r in enumerate(L.rank):
        by_rank.setdefault(r, []).append(i)
    for r in sorted(by_rank):
        members = " ".join(f"x{i};" for i in by_rank[r])
        lines.append(f"  {{ rank=same; {members} }}")
    for lo, hi in sorted(L.poset.covers):
        lines.append(f"  x{lo} -> x{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def matchings_to_json(matchings: Sequence) -> list[tuple[int, ...]]:
    """Matchings as sorted edge-id arrays, in canonical order.

    Each row is the matching's own ``edge_ids`` tuple, not a copy: the
    JSON writers encode tuples as arrays.
    """
    return [M.edge_ids for M in matchings]
