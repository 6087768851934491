"""The face-flip digraph on perfect matchings and its order structure.

Two matchings are adjacent when they differ exactly on the boundary of a
single inner face; the arc points away from the matching for which that
boundary is proper-alternating.  Reachability in this digraph orders the
matchings; for weakly elementary graphs the result is a distributive
lattice whose Hasse diagram is the digraph itself, and for 2-connected
outerplane graphs the lattice is isomorphic to the ideal lattice of the
face poset carried by the oriented inner dual.

The digraph is recorded on integer edge masks by the walk that
enumerates the matchings (``matching._flip_walk``).  For a simple-cycle
inner face f, ``face`` is its boundary and ``white`` the steps of its
clockwise walk whose tail is white; a matching m has an arc across f
exactly when ``m & face == white``.  The tails of a bipartite simple
cycle alternate in colour, so this holds exactly when m takes every other
boundary edge, each from its white end to its black end: the boundary is
proper m-alternating.  The walk makes the test at the arc's lower end,
``m ^ face``, and certifies the arcs acyclic by its order.
``matching.classify_alternating_faces`` is the per-matching reference for
the same test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .derive import per_object
from .errors import (
    DirectedCycleInInnerDual,
    HasseMismatch,
    IsoFailure,
    MultipleSinks,
    MultipleSources,
    NoPerfectMatching,
    NotAMatching,
    NotAPath,
    NotComparable,
    NotOuterplane,
    ParseError,
    SizeCapExceeded,
)
from .lattice import (
    FiniteLattice,
    FinitePoset,
    ideal_iso_refusal,
    lattice_from_poset,
    poset_from_relation,
)
from .matching import (
    IMPROPER,
    PROPER,
    Matching,
    _difference_cycles,
    _flip_walk,
    all_alternating_cycles,
    enumerate_perfect_matchings,
    matching_index,
)
from .plane_graph import (
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
    """The flip digraph, as the enumeration's walk recorded it.

    The walk (:func:`matching._flip_walk`) tests each cover once, from its
    lower end, and certifies the arcs acyclic: its walk order is a linear
    extension.  Faces that are not simple cycles never alternate.
    """
    matchings = enumerate_perfect_matchings(G)
    if not matchings:
        raise NoPerfectMatching("graph has no perfect matching")
    return ZDigraph(matchings=matchings, arcs=_flip_walk(G)[1])


@dataclass(frozen=True, eq=False)
class MatchingPoset:
    """Reachability order on matchings, with certified cover relation.

    ``poset`` orders all matchings (M' below M when the digraph walks
    from M down to M').
    """

    digraph: ZDigraph
    poset: FinitePoset

    @property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The weakly connected pieces, each of which carries its own
        lattice for weakly elementary hosts."""
        return self.poset.components

    @property
    def matchings(self) -> tuple[Matching, ...]:
        return self.digraph.matchings

    def leq(self, i: int, j: int) -> bool:
        """True when matching i is below matching j."""
        return self.poset.leq(i, j)


@per_object
def matching_poset(G: PlaneBipartiteGraph) -> MatchingPoset:
    """Order matchings by reachability; FinitePoset certifies the arcs as covers."""
    Z = build_z_digraph(G)
    # the walk records each cover once, so no set is needed; a repeated
    # pair would make FinitePoset refuse, which becomes HasseMismatch
    covers = tuple(sorted([(b, a) for a, b, _ in Z.arcs]))
    try:
        poset = FinitePoset(tuple(Z.matchings), covers)
    except ParseError as exc:
        raise HasseMismatch(f"flip digraph is not a Hasse diagram: {exc}") from exc
    return MatchingPoset(digraph=Z, poset=poset)


@per_object
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
    try:
        i, j = idx[M], idx[M2]
    except KeyError as exc:
        raise NotAMatching(f"{exc} is not a perfect matching of the graph") from None
    if not mp.leq(j, i):
        raise NotComparable("second matching is not below the first")
    total = 0
    for rep in _difference_cycles(G, M, M2):
        if face_id in rep.enclosed_faces:
            total += 1 if rep.orientation_class == PROPER else -1
    if total < 0:
        raise AssertionError("signed enclosure count went negative under the order")
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
    """All directed paths from start to end; more than cap raise SizeCapExceeded.

    Depth-first over an explicit stack of successor iterators, one more
    than the nodes on the path.  A recursive closure would be a reference
    cycle holding every path found until the cyclic collector ran.
    """
    Z = build_z_digraph(G)
    out: list[tuple[int, ...]] = []
    path: list[int] = []
    todo = [iter((start,))]
    while todo:
        here = next(todo[-1], None)
        if here is None:
            todo.pop()
            if path:
                path.pop()
            continue
        path.append(here)
        if here == end:
            if len(out) == cap:
                raise SizeCapExceeded(f"more than {cap} directed paths")
            out.append(tuple(path))
            path.pop()
        else:
            todo.append(b for _, b, _ in Z.out_arcs(here))
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
    if M not in matching_index(G):  # the enumerated matchings were checked
        raise NotAMatching(f"{M!r} is not a perfect matching of the graph")
    enclosed: set[int] = set()
    for rep in _difference_cycles(G, M, ext.root):
        enclosed.update(rep.enclosed_faces)
    return frozenset(enclosed)


@dataclass(frozen=True, eq=False)
class MatchingIdealIso:
    """Certified isomorphism between the matching lattice and J(face poset)."""

    face_poset: FinitePoset
    ideal_of: tuple[frozenset[int], ...]  # matching index -> face ideal


def certify_ideal_map(
    mp: MatchingPoset, images: Sequence[frozenset], F: FinitePoset
) -> None:
    """Certify matching i -> images[i] (a set of F's labels) as an isomorphism
    onto J(F), by its covers (:func:`lattice.ideal_iso_refusal`); raise
    IsoFailure with the refusal otherwise.  J(F) itself is never built."""
    pos = {label: i for i, label in enumerate(F.labels)}
    d = [sum(1 << pos[x] for x in image) for image in images]
    below = [m ^ 1 << q for q, m in enumerate(F.down_masks)]
    refusal = ideal_iso_refusal(mp.poset, d, below, F.up_covers)
    if refusal is not None:
        raise IsoFailure(refusal)


def verify_iso_matchings_ideals(G: PlaneBipartiteGraph) -> MatchingIdealIso:
    """Check that sigma is an order isomorphism onto the ideals of F(G)."""
    F = face_poset_outerplane(G)
    mp = matching_poset(G)
    images = tuple(sigma(G, M) for M in mp.matchings)
    certify_ideal_map(mp, images, F)
    return MatchingIdealIso(face_poset=F, ideal_of=images)
