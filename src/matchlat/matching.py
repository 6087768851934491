"""Perfect matching enumeration and alternating-cycle classification.

Enumeration is oracle-grade: deterministic branch-and-prune over
vertices, complete and duplicate-free, gated by the size caps.  The
search is iterative, over an explicit stack, and picks each branch
vertex by the popcount of its free-neighbour mask; its tree is that of a
search which rescans every vertex per node.  Counting shortcuts
(transfer matrices, Pfaffians) are deliberately out of scope.

Alternating cycles run on the edge masks of ``plane_graph``: a symmetric
difference is split into cycles by walks from each cycle's smallest
edge, and ``classify_cycle`` takes a cycle's canonical edge sequence from
that walk and its interior and clockwise steps from Jordan parity.
``oracles.faces_inside_cycle_by_flood`` is the independent route to the
interiors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .derive import per_object
from .errors import NoPerfectMatching, NotAMatching, SizeCapExceeded
from .plane_graph import (
    WHITE,
    PlaneBipartiteGraph,
    clockwise_cycle,
    edge_ends,
    edge_mask,
    is_two_regular,
    walk_cycle,
)

PROPER = "proper"
IMPROPER = "improper"


@dataclass(frozen=True, order=True)
class Matching:
    """A perfect matching as a canonical sorted tuple of edge ids."""

    edge_ids: tuple[int, ...]

    @property
    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edge_ids)

    def __contains__(self, edge_id: int) -> bool:
        return edge_id in self.edge_set

    def flip(self, cycle_edges: Iterable[int]) -> "Matching":
        return Matching(tuple(sorted(self.edge_set ^ frozenset(cycle_edges))))


@dataclass(frozen=True)
class AlternatingCycleReport:
    """One alternating cycle: its edges, orientation class, and interior."""

    cycle: tuple[int, ...]  # edge ids in cyclic order
    orientation_class: str  # PROPER or IMPROPER, w.r.t. the reference matching
    enclosed_faces: frozenset[int]

    @property
    def edge_set(self) -> frozenset[int]:
        return frozenset(self.cycle)


def _enumerate_on_edges(
    n_vertices: int, edges: Sequence[tuple[int, int]], cap: int
) -> list[tuple[int, ...]]:
    """All perfect matchings of an abstract graph, as sorted edge-index tuples.

    The leaves of :func:`_search_tree`, sorted; more than ``cap`` of them
    raise :class:`SizeCapExceeded`.  Complete and deterministic.
    """
    if n_vertices % 2 == 1:
        return []
    results: list[tuple[int, ...]] = []
    for matching in _search_tree(n_vertices, edges):
        if len(results) >= cap:
            raise SizeCapExceeded(f"more than {cap} matchings")
        results.append(matching)
    results.sort()
    return results


def _search_tree(
    n_vertices: int, edges: Sequence[tuple[int, int]]
) -> Iterator[tuple[int, ...]]:
    """Branch-and-prune search for perfect matchings, leaves in visiting order.

    Depth-first over an explicit stack, so no host is too deep.  Each node
    branches on the first uncovered vertex with the fewest uncovered
    neighbours, a popcount of its neighbour mask; the walk over the free
    vertices stops at a vertex with one option and prunes the node at a
    vertex with none.  The children follow the vertex's incident edges in
    input order.  On a simple graph, where a vertex's free neighbours and
    its available edges are one count, this is the tree and the visiting
    order of a recursive search that rescans every vertex at each node.
    """
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n_vertices)]
    nbr = [0] * n_vertices
    for eid, (u, v) in enumerate(edges):
        incident[u].append((eid, 1 << v))
        incident[v].append((eid, 1 << u))
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u

    full = (1 << n_vertices) - 1
    chosen: list[int] = []  # the edges on the path to the popped node
    stack = [(0, 0, -1)]  # (covered, depth, edge chosen last); the root has depth 0
    while stack:
        covered, depth, eid = stack.pop()
        if depth:
            del chosen[depth - 1 :]
            chosen.append(eid)
        if covered == full:
            yield tuple(sorted(chosen))
            continue
        free = full ^ covered
        rest = free
        best = n_vertices
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            score = (nbr[v] & free).bit_count()
            if score < best:
                best_v, best = v, score
                if score <= 1:
                    break
            rest ^= low
        if best == 0:
            continue
        base = covered | 1 << best_v
        stack.extend(
            (base | ubit, depth + 1, e)
            for e, ubit in reversed(incident[best_v])
            if free & ubit
        )


@per_object
def enumerate_perfect_matchings(G: PlaneBipartiteGraph) -> tuple[Matching, ...]:
    """Complete, canonically ordered tuple of perfect matchings of G."""
    G.caps.check_vertices(G.n_vertices)
    if sum(G.colors) * 2 != G.n_vertices:
        return ()
    raw = _enumerate_on_edges(G.n_vertices, G.edges, G.caps.max_matchings)
    return tuple(Matching(t) for t in raw)


@per_object
def matching_index(G: PlaneBipartiteGraph) -> dict[Matching, int]:
    return {M: i for i, M in enumerate(enumerate_perfect_matchings(G))}


def check_matching(G: PlaneBipartiteGraph, M: Matching) -> None:
    _matching_mask(G, M, edge_ends(G))


def _matching_mask(
    G: PlaneBipartiteGraph, M: Matching, ends: Sequence[int]
) -> int:
    """M's edges as a mask; refuses M unless it is a perfect matching of G.

    ``ends[e]`` is the vertex mask of edge e.  OR-ing them refuses an
    unknown edge id, two edges sharing a vertex and an uncovered vertex.
    """
    mask = covered = 0
    for eid in M.edge_ids:
        if not 0 <= eid < len(ends):
            raise NotAMatching(f"unknown edge id {eid}")
        if covered & ends[eid]:
            raise NotAMatching(f"edges share vertex at edge {eid}")
        covered |= ends[eid]
        mask |= 1 << eid
    if covered != (1 << G.n_vertices) - 1:
        raise NotAMatching("not all vertices are covered")
    return mask


def classify_alternating_faces(
    G: PlaneBipartiteGraph, M: Matching
) -> list[tuple[int, str]]:
    """Inner faces whose boundary is M-alternating, tagged proper/improper.

    An alternating face is proper when its matching edges run from white
    to black along the clockwise inner-face walk.  Faces whose boundary is
    not a simple cycle can never alternate and are skipped.  This is the
    per-matching reference route; ``ztransform.build_z_digraph`` makes the
    same test for every matching at once on edge masks.
    """
    check_matching(G, M)
    out: list[tuple[int, str]] = []
    mset = M.edge_set
    for fid in G.inner_face_ids:
        walk = G.faces[fid]
        if not walk.is_simple_cycle:
            continue
        pattern = [eid in mset for eid, _, _ in walk.steps]
        if not any(pattern):
            continue
        L = len(pattern)
        if any(pattern[i] == pattern[(i + 1) % L] for i in range(L)):
            continue
        classes = {
            PROPER if G.colors[tail] == WHITE else IMPROPER
            for (eid, tail, _), inm in zip(walk.steps, pattern)
            if inm
        }
        if len(classes) != 1:
            raise AssertionError("matched edges disagree on orientation class")
        out.append((fid, classes.pop()))
    return out


def _cycles_of_edge_set(
    G: PlaneBipartiteGraph, edge_set: frozenset[int]
) -> list[frozenset[int]]:
    """Split a 2-regular edge set into its vertex-disjoint cycles.

    Each cycle is a set of edge ids, walked on the edge mask from the
    smallest edge not yet taken, so the list is ordered by each cycle's
    smallest edge.  :func:`classify_cycle` gives a cycle's canonical edge
    sequence.
    """
    rest = edge_mask(G, edge_set)
    if not is_two_regular(G, edge_set):
        raise NotAMatching("symmetric difference is not a disjoint union of cycles")
    cycles: list[frozenset[int]] = []
    while rest:
        steps = walk_cycle(G, rest, (rest & -rest).bit_length() - 1)
        cycle = frozenset(eid for eid, _, _ in steps)
        cycles.append(cycle)
        rest ^= sum(1 << eid for eid in cycle)
    return cycles


def classify_cycle(
    G: PlaneBipartiteGraph, M: Matching, cycle_edges: Iterable[int]
) -> AlternatingCycleReport:
    """Classify one M-alternating cycle as proper/improper w.r.t. M.

    One walk checks the cycle and gives its canonical edge sequence; Jordan
    parity gives its interior, and with it each edge's clockwise step.
    """
    steps, inside = clockwise_cycle(G, cycle_edges)
    mset = M.edge_set
    classes = {
        PROPER if G.colors[tail] == WHITE else IMPROPER
        for eid, tail, _ in steps
        if eid in mset
    }
    if not classes:
        raise AssertionError("cycle has no matching edge")
    if len(classes) != 1:
        raise AssertionError("matched edges disagree on orientation class")
    return AlternatingCycleReport(
        cycle=tuple(eid for eid, _, _ in steps),
        orientation_class=classes.pop(),
        enclosed_faces=inside,
    )


def symmetric_difference_cycles(
    G: PlaneBipartiteGraph, M1: Matching, M2: Matching
) -> list[AlternatingCycleReport]:
    """Decompose M1 xor M2 into disjoint cycles, classified w.r.t. M1."""
    check_matching(G, M1)
    check_matching(G, M2)
    return _difference_cycles(G, M1, M2)


def _difference_cycles(G: PlaneBipartiteGraph, M1: Matching, M2: Matching) -> list:
    """The same, for two matchings known to be perfect matchings of G."""
    diff = M1.edge_set ^ M2.edge_set
    return [classify_cycle(G, M1, cyc) for cyc in _cycles_of_edge_set(G, diff)]


def forcing_edges(G: PlaneBipartiteGraph) -> frozenset[int]:
    """Edges contained in exactly one perfect matching."""
    matchings = enumerate_perfect_matchings(G)
    if not matchings:
        raise NoPerfectMatching("graph has no perfect matching")
    count = [0] * G.n_edges
    for M in matchings:
        for eid in M.edge_ids:
            count[eid] += 1
    return frozenset(eid for eid, c in enumerate(count) if c == 1)


def all_alternating_cycles(
    G: PlaneBipartiteGraph, M: Matching
) -> list[AlternatingCycleReport]:
    """Every M-alternating cycle of G.

    Flipping an alternating cycle of M yields another perfect matching,
    and conversely every single-cycle symmetric difference with M is an
    M-alternating cycle, so the cycles are exactly the single-cycle
    differences M xor M'.
    """
    check_matching(G, M)
    reports: list[AlternatingCycleReport] = []
    for M2 in enumerate_perfect_matchings(G):
        if M2 == M:
            continue
        diff = M.edge_set ^ M2.edge_set
        cycles = _cycles_of_edge_set(G, diff)
        if len(cycles) == 1:
            reports.append(classify_cycle(G, M, cycles[0]))
    reports.sort(key=lambda r: r.cycle)
    return reports
