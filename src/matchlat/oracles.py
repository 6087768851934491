"""Independent brute-force oracles.

These deliberately re-derive results by a different route than the main
implementations (edge-subset recursion instead of vertex branching,
subset filtering instead of extension DFS, cycle DFS instead of
symmetric differences, definition chasing instead of dual cycles) and
exist only to cross-check them at small sizes.
"""

from __future__ import annotations

from typing import Iterable

from .caps import SizeCaps
from .errors import SizeCapExceeded
from .lattice import FiniteLattice, FinitePoset, lattice_isomorphic, order_ideal_lattice
from .matching import Matching
from .plane_graph import PlaneBipartiteGraph


def count_matchings_bruteforce(G: PlaneBipartiteGraph) -> int:
    """Count perfect matchings by include/exclude recursion over the edge list."""
    n = G.n_vertices
    edges = G.edges
    # last edge index touching each vertex, for a dead-end cutoff
    last_touch = [-1] * n
    for eid, (u, v) in enumerate(edges):
        last_touch[u] = eid
        last_touch[v] = eid

    count = 0

    def rec(idx: int, covered: int) -> None:
        nonlocal count
        if covered == (1 << n) - 1:
            count += 1
            return
        if idx == len(edges):
            return
        # the smallest uncovered vertex must still be reachable
        low = ((covered + 1) & ~covered).bit_length() - 1
        if last_touch[low] < idx:
            return
        u, v = edges[idx]
        if not (covered >> u & 1) and not (covered >> v & 1):
            rec(idx + 1, covered | 1 << u | 1 << v)
        rec(idx + 1, covered)

    rec(0, 0)
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
    mate_edge: dict[int, int] = {}
    for eid in M.edge_ids:
        u, v = G.edges[eid]
        mate_edge[u] = eid
        mate_edge[v] = eid

    found: set[frozenset[int]] = set()

    def extend(start: int, here: int, need_matched: bool,
               visited: set[int], path_edges: list[int]) -> None:
        for eid in G.incident_edges[here]:
            in_m = eid in M.edge_set
            if in_m != need_matched:
                continue
            nxt = G.other_end(eid, here)
            if nxt == start and not need_matched and len(path_edges) >= 3:
                found.add(frozenset(path_edges + [eid]))
                continue
            if nxt in visited or nxt < start:
                continue
            visited.add(nxt)
            path_edges.append(eid)
            extend(start, nxt, not need_matched, visited, path_edges)
            path_edges.pop()
            visited.remove(nxt)

    for v in range(G.n_vertices):
        extend(v, v, True, {v}, [])
    return found


def minimal_cuts_with_white_bank(G: PlaneBipartiteGraph) -> set[frozenset[int]]:
    """All e-cuts straight from the definition, by scanning edge subsets.

    A subset qualifies when removing it leaves exactly two components, no
    proper subset disconnects, and every cut edge touches a white vertex
    of one single component.  Exponential; only for graphs with few edges.
    """
    E = G.n_edges
    assert E <= 20, "definition oracle is limited to 20 edges"

    def components(removed: int) -> list[int]:
        comp = [-1] * G.n_vertices
        c = 0
        for root in range(G.n_vertices):
            if comp[root] >= 0:
                continue
            comp[root] = c
            stack = [root]
            while stack:
                x = stack.pop()
                for eid in G.incident_edges[x]:
                    if removed >> eid & 1:
                        continue
                    y = G.other_end(eid, x)
                    if comp[y] < 0:
                        comp[y] = c
                        stack.append(y)
            c += 1
        return comp

    out: set[frozenset[int]] = set()
    for mask in range(1, 1 << E):
        comp = components(mask)
        if max(comp) != 1:
            continue
        minimal = True
        m = mask
        while m:
            b = m & -m
            m ^= b
            if max(components(mask ^ b)) == 0:
                continue
            minimal = False
            break
        if not minimal:
            continue
        banks = {comp[G.white_end(eid)] for eid in _bits(mask)}
        if len(banks) == 1:
            out.add(frozenset(_bits(mask)))
    return out


def _bits(mask: int) -> Iterable[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def distributive_by_birkhoff(L: FiniteLattice) -> bool:
    """A finite lattice is distributive iff it embeds onto the ideal
    lattice of its join-irreducibles; used to cross-check the triple loop."""
    from .lattice import join_irreducibles

    P, _ = join_irreducibles(L)
    try:
        J, _ = order_ideal_lattice(P, caps=SizeCaps(max_matchings=L.n))
    except SizeCapExceeded:  # more ideals than elements: L is not J(Irr L)
        return False
    if J.n != L.n:
        return False
    return lattice_isomorphic(L, J).isomorphic
