"""Independent brute-force oracles.

These deliberately re-derive results by a different route than the main
implementations (edge-subset recursion instead of vertex branching,
subset filtering instead of extension DFS, cycle DFS instead of
symmetric differences, definition chasing instead of dual cycles,
flooding the dual instead of Jordan parity) and exist only to
cross-check them at small sizes.
"""

from __future__ import annotations

from typing import Iterable

from .caps import SizeCaps
from .derive import component_labels
from .errors import SizeCapExceeded
from .lattice import (
    FiniteLattice,
    FinitePoset,
    _bits,
    join_irreducibles,
    lattice_isomorphic,
    order_ideal_lattice,
)
from .matching import Matching
from .plane_graph import PlaneBipartiteGraph, mask_edge_ids


def count_matchings_bruteforce(G: PlaneBipartiteGraph) -> int:
    """Count perfect matchings by include/exclude recursion over the edge list."""
    n = G.n_vertices
    edges = G.edges
    # last edge index touching each vertex, for a dead-end cutoff
    last_touch = [-1] * n
    for eid, (u, v) in enumerate(edges):
        last_touch[u] = eid
        last_touch[v] = eid

    # an explicit stack, include branch first: a recursive closure is a
    # reference cycle that every call leaves for the cyclic collector
    full = (1 << n) - 1
    count = 0
    stack = [(0, 0)]
    while stack:
        idx, covered = stack.pop()
        if covered == full:
            count += 1
            continue
        if idx == len(edges):
            continue
        # the smallest uncovered vertex must still be reachable
        low = ((covered + 1) & ~covered).bit_length() - 1
        if last_touch[low] < idx:
            continue
        stack.append((idx + 1, covered))
        u, v = edges[idx]
        if not (covered >> u & 1) and not (covered >> v & 1):
            stack.append((idx + 1, covered | 1 << u | 1 << v))
    return count


def ideals_bruteforce(P: FinitePoset) -> set[int]:
    """All down-sets of P by filtering every subset (n <= ~20)."""
    out: set[int] = set()
    for mask in range(1 << P.n):
        ok = True
        for x in range(P.n):
            if mask >> x & 1:
                if P.down_masks[x] & ~mask:
                    ok = False
                    break
        if ok:
            out.add(mask)
    return out


def alternating_cycles_dfs(
    G: PlaneBipartiteGraph, M: Matching
) -> set[frozenset[int]]:
    """All M-alternating cycles by DFS over alternating closed walks.

    Every vertex of an alternating cycle uses its matched edge, so each
    cycle is found from its smallest vertex by leaving along the matched
    edge and closing along an unmatched one.
    """
    # an explicit stack of (vertex, edge iterator), one per path vertex
    mset = M.edge_set
    found: set[frozenset[int]] = set()
    for start in range(G.n_vertices):
        visited = {start}
        path_edges: list[int] = []
        todo = [(start, iter(G.incident_edges[start]))]
        while todo:
            here, edges = todo[-1]
            eid = next(edges, None)
            if eid is None:
                todo.pop()
                if path_edges:
                    path_edges.pop()
                    visited.remove(here)
                continue
            need_matched = len(path_edges) % 2 == 0
            if (eid in mset) != need_matched:
                continue
            nxt = G.other_end(eid, here)
            if nxt == start and not need_matched and len(path_edges) >= 3:
                found.add(frozenset(path_edges + [eid]))
                continue
            if nxt in visited or nxt < start:
                continue
            visited.add(nxt)
            path_edges.append(eid)
            todo.append((nxt, iter(G.incident_edges[nxt])))
    return found


def faces_inside_cycle_by_flood(
    G: PlaneBipartiteGraph, cycle_edges: Iterable[int]
) -> frozenset[int]:
    """Faces inside a simple cycle: with the dual edges crossing it deleted,
    those outside the outer face's component of the dual."""
    cyc = frozenset(cycle_edges)
    labels = component_labels(
        len(G.faces),
        (G.edge_faces(eid) for eid in range(G.n_edges) if eid not in cyc),
    )
    outside = labels[G.outer_face]
    return frozenset(f for f, label in enumerate(labels) if label != outside)


def e_cuts_by_definition(G: PlaneBipartiteGraph) -> set[int]:
    """All e-cuts as canonical edge masks, straight from the definition.

    An edge subset qualifies when removing it leaves exactly two components, no
    proper subset disconnects, and every cut edge touches a white vertex
    of one single component.  Exponential; only for graphs with few edges.
    """
    E = G.n_edges
    if E > 20:
        raise AssertionError("definition oracle is limited to 20 edges")

    def components(removed: int) -> list[int]:
        kept = (uv for eid, uv in enumerate(G.edges) if not removed >> E - 1 - eid & 1)
        return component_labels(G.n_vertices, kept)

    out: set[int] = set()
    for mask in range(1, 1 << E):
        comp = components(mask)
        # two components, and putting back any one edge reconnects them
        if max(comp) != 1 or any(max(components(mask ^ 1 << b)) for b in _bits(mask)):
            continue
        banks = {comp[G.white_end(eid)] for eid in mask_edge_ids(E, mask)}
        if len(banks) == 1:
            out.add(mask)
    return out


def distributive_by_birkhoff(L: FiniteLattice) -> bool:
    """A finite lattice is distributive iff it embeds onto the ideal
    lattice of its join-irreducibles; used to cross-check the triple loop."""
    P, _ = join_irreducibles(L)
    try:
        J, _ = order_ideal_lattice(P, caps=SizeCaps(max_matchings=L.n))
    except SizeCapExceeded:  # more ideals than elements: L is not J(Irr L)
        return False
    if J.n != L.n:
        return False
    return lattice_isomorphic(L, J).isomorphic
