"""The face-flip digraph on perfect matchings and its order structure.

Two matchings are adjacent when they differ exactly on the boundary of a
single inner face; the arc points away from the matching for which that
boundary is proper-alternating.  Reachability in this digraph orders the
matchings; for weakly elementary graphs the result is a distributive
lattice whose Hasse diagram is the digraph itself, and for 2-connected
outerplane graphs the lattice is isomorphic to the ideal lattice of the
face poset carried by the oriented inner dual.

The digraph is built on integer edge masks.  For a simple-cycle inner
face f, ``face`` is its boundary and ``white`` the steps of its clockwise
walk whose tail is white; a matching m has an arc across f exactly when
``m & face == white``.  The tails of a bipartite simple cycle alternate in
colour, so this holds exactly when m takes every other boundary edge, each
from its white end to its black end: the boundary is proper m-alternating.
``matching.classify_alternating_faces`` is the per-matching reference for
the same test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .caps import SizeCaps
from .derive import per_object
from .errors import (
    CycleDetected,
    DirectedCycleInInnerDual,
    HasseMismatch,
    IsoFailure,
    MultipleSinks,
    MultipleSources,
    NoPerfectMatching,
    NotAPath,
    NotComparable,
    NotOuterplane,
    ParseError,
    SizeCapExceeded,
)
from .lattice import (
    FiniteLattice,
    FinitePoset,
    lattice_from_poset,
    order_ideal_lattice,
    order_iso_refusal,
    poset_from_relation,
)
from .matching import (
    IMPROPER,
    PROPER,
    Matching,
    _matching_mask,
    all_alternating_cycles,
    enumerate_perfect_matchings,
    matching_index,
    symmetric_difference_cycles,
)
from .plane_graph import (
    WHITE,
    PlaneBipartiteGraph,
    is_outerplane_2connected,
    oriented_dual,
)


@dataclass(frozen=True, eq=False)
class ZDigraph:
    """Acyclic flip digraph: nodes are matchings, arcs are labeled by faces."""

    matchings: tuple[Matching, ...]
    arcs: tuple[tuple[int, int, int], ...]  # (from, to, inner face id)

    @property
    def n(self) -> int:
        return len(self.matchings)

    def out_arcs(self, i: int) -> tuple[tuple[int, int, int], ...]:
        return self._out[i]

    @cached_property
    def _out(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(self.n)]
        for a in self.arcs:
            adj[a[0]].append(a)
        return tuple(tuple(lst) for lst in adj)


@per_object
def build_z_digraph(G: PlaneBipartiteGraph) -> ZDigraph:
    """Build the flip digraph from edge masks and certify it acyclic.

    Each matching m and each simple-cycle inner face f are edge masks;
    ``white`` holds the steps of f's clockwise walk whose tail is white.
    The tails of a bipartite simple cycle alternate in colour, so
    ``m & face == white`` says that m takes every other edge of f, each
    running white to black: f is proper m-alternating, and the arc leads
    to ``m ^ face``.  Faces that are not simple cycles never alternate.
    Each matching's mask comes with the checks of ``check_matching``.
    """
    matchings = enumerate_perfect_matchings(G)
    if not matchings:
        raise NoPerfectMatching("graph has no perfect matching")
    faces = [
        (fid, sum(1 << eid for eid, _, _ in walk.steps),
         sum(1 << eid for eid, tail, _ in walk.steps if G.colors[tail] == WHITE))
        for fid in G.inner_face_ids
        if (walk := G.faces[fid]).is_simple_cycle
    ]
    ends = [1 << u | 1 << v for u, v in G.edges]
    masks = [_matching_mask(G, M, ends) for M in matchings]
    index = {m: i for i, m in enumerate(masks)}
    arcs = sorted(
        (i, index[m ^ face], fid)
        for i, m in enumerate(masks)
        for fid, face, white in faces
        if m & face == white
    )
    dig = ZDigraph(matchings=matchings, arcs=tuple(arcs))
    _topological_order(dig)  # raises CycleDetected
    return dig


def _topological_order(Z: ZDigraph) -> list[int]:
    indeg = [0] * Z.n
    for _, b, _ in Z.arcs:
        indeg[b] += 1
    stack = sorted((i for i in range(Z.n) if indeg[i] == 0), reverse=True)
    order: list[int] = []
    while stack:
        x = stack.pop()
        order.append(x)
        for _, b, _ in Z.out_arcs(x):
            indeg[b] -= 1
            if indeg[b] == 0:
                stack.append(b)
    if len(order) != Z.n:
        raise CycleDetected("flip digraph has a directed cycle (orientation bug)")
    return order


@dataclass(frozen=True, eq=False)
class MatchingPoset:
    """Reachability order on matchings, with certified cover relation.

    ``poset`` orders all matchings (M' below M when the digraph walks
    from M down to M'); ``components`` lists the weakly connected pieces,
    each of which carries its own lattice for weakly elementary hosts.
    """

    digraph: ZDigraph
    poset: FinitePoset
    components: tuple[tuple[int, ...], ...]

    @property
    def matchings(self) -> tuple[Matching, ...]:
        return self.digraph.matchings

    def leq(self, i: int, j: int) -> bool:
        """True when matching i is below matching j."""
        return self.poset.leq(i, j)

    def component_lattices(self) -> tuple[FiniteLattice, ...]:
        out = []
        for comp in self.components:
            out.append(lattice_from_poset(self.poset.subposet(comp)))
        return tuple(out)


@per_object
def matching_poset(G: PlaneBipartiteGraph) -> MatchingPoset:
    """Order matchings by reachability; FinitePoset certifies the arcs as covers."""
    Z = build_z_digraph(G)
    covers = tuple(sorted({(b, a) for a, b, _ in Z.arcs}))
    try:
        poset = FinitePoset(tuple(Z.matchings), covers)
    except ParseError as exc:
        raise HasseMismatch(f"flip digraph is not a Hasse diagram: {exc}") from exc
    return MatchingPoset(digraph=Z, poset=poset, components=poset.components)


def matching_lattice(G: PlaneBipartiteGraph) -> FiniteLattice:
    """The full matching lattice; fails if the host is not weakly elementary."""
    return lattice_from_poset(matching_poset(G).poset)


@dataclass(frozen=True)
class ExtremalMatchings:
    source: Matching  # greatest element: no improper alternating cycle
    root: Matching  # least element: no proper alternating cycle
    source_index: int
    root_index: int


@per_object
def extremal_matchings(G: PlaneBipartiteGraph) -> ExtremalMatchings:
    """Unique source and sink of the flip digraph, exhaustively verified.

    Verification enumerates every alternating cycle of the source (none
    may be improper) and of the root (none may be proper).  For a
    non-weakly-elementary host with several components the error carries
    the per-component breakdown.
    """
    mp = matching_poset(G)
    # arcs point down the order: sources are maximal, sinks minimal
    sources = mp.poset.maximal_elements
    sinks = mp.poset.minimal_elements
    if len(sources) > 1:
        raise MultipleSources(
            f"{len(sources)} sources across components {mp.components}"
        )
    if len(sinks) > 1:
        raise MultipleSinks(f"{len(sinks)} sinks across components {mp.components}")
    src, snk = sources[0], sinks[0]
    for rep in all_alternating_cycles(G, mp.matchings[src]):
        if rep.orientation_class == IMPROPER:
            raise AssertionError("source matching has an improper alternating cycle")
    for rep in all_alternating_cycles(G, mp.matchings[snk]):
        if rep.orientation_class == PROPER:
            raise AssertionError("root matching has a proper alternating cycle")
    return ExtremalMatchings(
        source=mp.matchings[src],
        root=mp.matchings[snk],
        source_index=src,
        root_index=snk,
    )


# --- signed cycle counts and face multiplicities -----------------------------


def delta_cycle_count(
    G: PlaneBipartiteGraph, M: Matching, M2: Matching, face_id: int
) -> int:
    """Signed count of alternating cycles of M xor M2 enclosing a face.

    Cycles proper with respect to M count +1, improper ones -1; requires
    M2 below M in the matching order, which forces the count to be >= 0.
    """
    mp = matching_poset(G)
    idx = matching_index(G)
    i, j = idx[M], idx[M2]
    if not mp.leq(j, i):
        raise NotComparable("second matching is not below the first")
    total = 0
    for rep in symmetric_difference_cycles(G, M, M2):
        if face_id in rep.enclosed_faces:
            total += 1 if rep.orientation_class == PROPER else -1
    assert total >= 0, "signed enclosure count went negative under the order"
    return total


def path_face_multiplicity(
    G: PlaneBipartiteGraph, path: Sequence[Matching], face_id: int
) -> int:
    """Multiplicity of a face among the arc labels of a directed flip path."""
    Z = build_z_digraph(G)
    idx = matching_index(G)
    try:
        nodes = [idx[M] for M in path]
    except KeyError as exc:
        raise NotAPath(f"unknown matching {exc}") from exc
    count = 0
    for a, b in zip(nodes, nodes[1:]):
        label = next((f for _, to, f in Z.out_arcs(a) if to == b), None)
        if label is None:
            raise NotAPath(f"no arc between consecutive matchings {a} -> {b}")
        if label == face_id:
            count += 1
    return count


def directed_paths(
    G: PlaneBipartiteGraph, start: int, end: int, cap: int = 10_000
) -> list[tuple[int, ...]]:
    """All directed paths from start to end; more than cap raise SizeCapExceeded."""
    Z = build_z_digraph(G)
    out: list[tuple[int, ...]] = []
    stack = [start]

    def rec(here: int) -> None:
        if here == end:
            if len(out) == cap:
                raise SizeCapExceeded(f"more than {cap} directed paths")
            out.append(tuple(stack))
            return
        for _, b, _ in Z.out_arcs(here):
            stack.append(b)
            rec(b)
            stack.pop()

    rec(start)
    return out


# --- face poset and the ideal isomorphism for outerplane graphs -------------


@per_object
def face_poset_outerplane(G: PlaneBipartiteGraph) -> FinitePoset:
    """Order the inner faces by reachability in the oriented inner dual.

    A face is below another when the inner dual walks from the latter
    down to the former.  Requires a 2-connected outerplane host; a
    directed cycle in the inner dual is reported, never repaired.
    """
    if not is_outerplane_2connected(G):
        raise NotOuterplane("graph is not 2-connected outerplane")
    dual = oriented_dual(G, include_outer=False)
    pos = {f: i for i, f in enumerate(dual.nodes)}
    # each arc points from a face down to a face below it
    below = [(pos[a.dst], pos[a.src]) for a in dual.arcs]
    try:
        return poset_from_relation(dual.nodes, below)
    except ParseError as exc:  # the relation's closure found a cycle
        raise DirectedCycleInInnerDual(
            "oriented inner dual has a directed cycle"
        ) from exc


def sigma(G: PlaneBipartiteGraph, M: Matching) -> frozenset[int]:
    """Faces enclosed by the cycles of M xor root: an ideal of the face poset."""
    face_poset_outerplane(G)  # raises NotOuterplane on any other host
    ext = extremal_matchings(G)
    enclosed: set[int] = set()
    for rep in symmetric_difference_cycles(G, M, ext.root):
        enclosed.update(rep.enclosed_faces)
    return frozenset(enclosed)


@dataclass(frozen=True, eq=False)
class MatchingIdealIso:
    """Certified isomorphism between the matching lattice and J(face poset)."""

    face_poset: FinitePoset
    ideal_of: tuple[frozenset[int], ...]  # matching index -> face ideal


def certify_ideal_map(
    mp: MatchingPoset, images: Sequence[frozenset], F: FinitePoset, caps: SizeCaps
) -> FiniteLattice:
    """Certify matching i -> images[i] (a set of F's labels) as an isomorphism
    onto J(F), and return J(F): ideal images, a bijection, covers to covers."""
    J, masks = order_ideal_lattice(F, caps=caps)
    index = {m: k for k, m in enumerate(masks)}
    pos = {label: i for i, label in enumerate(F.labels)}
    f = [index.get(sum(1 << pos[x] for x in image)) for image in images]
    if None in f:
        raise IsoFailure(f"image of matching {f.index(None)} is not an ideal")
    if not len(set(f)) == len(f) == J.n:
        raise IsoFailure(f"the images are no bijection onto the {J.n} ideals")
    Q = J.poset
    refusal = order_iso_refusal(
        mp.poset, f, lambda a, b: b in Q.up_covers[a], len(Q.covers)
    )
    if refusal is not None:
        raise IsoFailure(refusal)
    return J


def verify_iso_matchings_ideals(G: PlaneBipartiteGraph) -> MatchingIdealIso:
    """Check that sigma is an order isomorphism onto the ideals of F(G)."""
    F = face_poset_outerplane(G)
    mp = matching_poset(G)
    images = tuple(sigma(G, M) for M in mp.matchings)
    certify_ideal_map(mp, images, F, G.caps)
    return MatchingIdealIso(face_poset=F, ideal_of=images)
