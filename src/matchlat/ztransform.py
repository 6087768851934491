"""The face-flip digraph on perfect matchings and its order structure.

Two matchings are adjacent when they differ exactly on the boundary of a
single inner face; the arc points away from the matching for which that
boundary is proper-alternating.  Reachability in this digraph orders the
matchings; for weakly elementary graphs the result is a distributive
lattice whose Hasse diagram is the digraph itself, and for 2-connected
outerplane graphs the lattice is isomorphic to the ideal lattice of the
face poset carried by the oriented inner dual.

The digraph is recorded on integer edge masks by the walk that
enumerates the matchings (``matching._flip_walk``), and kept there as
one ``ZDigraph`` of masks and arcs.  For a simple-cycle
inner face f, ``face`` is its boundary and ``white`` the steps of its
clockwise walk whose tail is white; a matching m has an arc across f
exactly when ``m & face == white``.  The tails of a bipartite simple
cycle alternate in colour, so this holds exactly when m takes every other
boundary edge, each from its white end to its black end: the boundary is
proper m-alternating.  The walk makes the test at the arc's upper end
m, and certifies the arcs acyclic by its order.
``matching.classify_alternating_faces`` is the per-matching reference for
the same test.

:func:`decomposition_by_components` answers ``analyze decompose`` with no
lattice: when each bounded face of each elementary component is a face
of the host, M(G) is the product of the components' irreducible
lattices.  That covers every host with a Kasteleyn count and at most one
component, an elementary host among them; hosts with a face that is no
simple cycle, a component face that is no face of the host, or no
perfect matching take the lattice route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
)
from .matching import (
    PROPER,
    Matching,
    ZDigraph,
    _capped_count,
    _climb,
    _difference_cycles,
    _flip_walk,
    _search_tree,
    enumerate_perfect_matchings,
    flip_faces,
    matching_index,
)
from .plane_graph import (
    PlaneBipartiteGraph,
    _faces_inside,
    edge_mask,
    elementary_components,
    is_outerplane_2connected,
    oriented_dual,
)


def build_z_digraph(G: PlaneBipartiteGraph) -> ZDigraph:
    """The flip digraph, as the enumeration's walk recorded it: the
    memoised :func:`matching._flip_walk` object itself, so its
    ``matchings`` are those of ``enumerate_perfect_matchings(G)``.

    The walk tests each cover once, from its upper end, and certifies the
    arcs acyclic: its walk order is a linear extension.  It lists each
    matching's lower covers in canonical order, so the arcs come out
    sorted with no sort.  Faces that are not simple cycles never
    alternate.
    """
    Z = _flip_walk(G)
    if not Z.masks:
        raise NoPerfectMatching("graph has no perfect matching")
    return Z


@per_object
def matching_poset(G: PlaneBipartiteGraph) -> FinitePoset:
    """Order matchings by reachability (M' below M when the digraph walks
    from M down to M'), labelled by ``enumerate_perfect_matchings(G)``,
    the tuple that ``build_z_digraph(G).matchings`` is too; FinitePoset
    certifies the arcs as its covers."""
    Z = build_z_digraph(G)
    # the walk records each cover once, so no set is needed; a repeated
    # pair would make FinitePoset refuse, which becomes HasseMismatch.  No
    # reader needs the covers sorted, so they keep the arc table's order
    t = Z.arc_table
    covers = tuple(zip(t[1::3], t[0::3]))
    try:
        return FinitePoset(enumerate_perfect_matchings(G), covers)
    except ParseError as exc:
        raise HasseMismatch(f"flip digraph is not a Hasse diagram: {exc}") from exc


@per_object
def matching_lattice(G: PlaneBipartiteGraph) -> FiniteLattice:
    """The full matching lattice; fails if the host is not weakly elementary."""
    return lattice_from_poset(matching_poset(G))


def decomposition_by_components(
    G: PlaneBipartiteGraph,
) -> Optional[tuple[int, list[int], list[list[int]]]]:
    """M(G)'s size, its irreducible factors' sizes and its central
    elements' coordinates, as ``irreducible_decomposition`` and
    ``central_elements`` of :func:`matching_lattice` give them, read off
    G's elementary components; None when G has no perfect matching or no
    Kasteleyn signing, or the component walks below do not multiply to
    the count.  The caps are those of the enumeration, with its messages.

    M(G) is the product of its elementary components' lattices, each
    irreducible (the source paper; Zhang & Zhang, Discrete Appl. Math.
    105, 2000), once every bounded face of each component is a face of
    G.  With at most one component that always holds, and the Kasteleyn
    count is the whole answer: the singletons of D(leaf) inside a bounded
    face of the component meet it by arcs all pointing one way (both
    ways would close a cycle through it), so one of them is a source or
    sink of D(leaf), a vertex of degree 1, and the inner face around it
    is no simple cycle, which leaves no signing.  With more, each
    component's flip walk from the branch search's first leaf gives its
    size, its top, bottom and join-irreducibles, those with one lower
    cover.  A component face that is no face of G is never flipped, so
    its walk falls short and the sizes do not multiply to the count.  In
    M(G) an irreducible of factor c, or the central element of c, is the
    global bottom with c's part swapped: a larger mask is a smaller
    lattice index, so the factors go by their largest such irreducible
    and the central elements by descending mask.
    """
    count = _capped_count(G)
    if not count:
        return None
    leaf = next(_search_tree(G.n_vertices, G.edges))
    comps = elementary_components(G, leaf)
    if len(comps) < 2:
        return count, [count], []
    label = [-1] * G.n_vertices
    for c, verts in enumerate(comps):
        for v in verts:
            label[v] = c
    top = G.n_edges - 1
    edges = [0] * len(comps)  # each component's edges, as a canonical mask
    for eid, (u, v) in enumerate(G.edges):
        if label[u] >= 0 and label[u] == label[v]:
            edges[label[u]] |= 1 << top - eid
    faces: list[list[tuple[int, int, int, int]]] = [[] for _ in comps]
    for fid, face, white in flip_faces(G):
        c = label[G.edges[top + 1 - face.bit_length()][0]]  # by its lowest edge
        if c >= 0 and not face & ~edges[c]:
            faces[c].append((fid, face, white, face ^ white))
    m = edge_mask(G.n_edges, leaf)
    bottom = m
    walks = []  # per component: size, top, bottom and irreducibles, as masks
    size = 1
    for fs in faces:
        index: dict[int, int] = {}
        start: list[int] = []
        lows: list[int] = []
        _climb(m, fs, index, start, lows, [], count)
        start.append(len(lows))
        below = [b - a for a, b in zip(start, start[1:])]
        masks = list(index)  # in walk order, the top first
        floor = masks[below.index(0)]
        walks.append((len(masks), masks[0], floor,
                      [x for x, k in zip(masks, below) if k == 1]))
        bottom ^= m ^ floor
        size *= len(masks)
    if size != count:
        return None
    walks.sort(key=lambda w: max(bottom ^ w[2] ^ j for j in w[3]), reverse=True)
    sizes = [n for n, _, _, _ in walks]
    central = sorted(
        ((bottom ^ floor ^ high, c) for c, (_, high, floor, _) in enumerate(walks)),
        reverse=True,
    )
    return count, sizes, [
        [n - 1 if k == c else 0 for k, n in enumerate(sizes)] for _, c in central
    ]


@dataclass(frozen=True)
class ExtremalMatchings:
    source: Matching  # greatest element: no improper alternating cycle
    root: Matching  # least element: no proper alternating cycle
    source_index: int
    root_index: int


@per_object
def extremal_matchings(G: PlaneBipartiteGraph) -> ExtremalMatchings:
    """Unique source and sink of the flip digraph: the top and bottom of
    the certified matching order.

    For a non-weakly-elementary host with several components the error
    carries the per-component breakdown.
    """
    P = matching_poset(G)
    # arcs point down the order: sources are maximal, sinks minimal
    sources = P.maximal_elements
    sinks = P.minimal_elements
    if len(sources) > 1:
        raise MultipleSources(
            f"{len(sources)} sources across components {P.components}"
        )
    if len(sinks) > 1:
        raise MultipleSinks(f"{len(sinks)} sinks across components {P.components}")
    src, snk = sources[0], sinks[0]
    return ExtremalMatchings(
        source=P.labels[src],
        root=P.labels[snk],
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
    idx = matching_index(G)
    try:
        i, j = idx[M], idx[M2]
    except KeyError as exc:
        raise NotAMatching(f"{exc} is not a perfect matching of the graph") from None
    if not matching_poset(G).leq(j, i):
        raise NotComparable("second matching is not below the first")
    return _delta_counts(G, M, M2).get(face_id, 0)


def _delta_counts(G: PlaneBipartiteGraph, M: Matching, M2: Matching) -> dict[int, int]:
    """:func:`delta_cycle_count` of every face at once, by face id (faces no
    cycle encloses are absent), for enumerated matchings M2 below M: one
    decomposition of M xor M2."""
    counts: dict[int, int] = {}
    for rep in _difference_cycles(G, M, M2):
        sign = 1 if rep.orientation_class == PROPER else -1
        for f in rep.enclosed_faces:
            counts[f] = counts.get(f, 0) + sign
    if any(c < 0 for c in counts.values()):
        raise AssertionError("signed enclosure count went negative under the order")
    return counts


def path_face_multiplicity(
    G: PlaneBipartiteGraph, path: Sequence[Matching], face_id: int
) -> int:
    """Multiplicity of a face among the arc labels of a directed flip path."""
    idx = matching_index(G)
    try:
        nodes = [idx[M] for M in path]
    except KeyError as exc:
        raise NotAPath(f"unknown matching {exc}") from exc
    return _path_face_counts(G, nodes).get(face_id, 0)


def _path_face_counts(G: PlaneBipartiteGraph, nodes: Sequence[int]) -> dict[int, int]:
    """:func:`path_face_multiplicity` of every face at once, by face id (faces
    never flipped are absent), for a path given as matching indices: one
    walk along it."""
    face_of = build_z_digraph(G).face_of
    counts: dict[int, int] = {}
    for a, b in zip(nodes, nodes[1:]):
        label = face_of.get((a, b))
        if label is None:
            raise NotAPath(f"no arc between consecutive matchings {a} -> {b}")
        counts[label] = counts.get(label, 0) + 1
    return counts


def directed_paths(
    G: PlaneBipartiteGraph, start: int, end: int, cap: int = 10_000
) -> list[tuple[int, ...]]:
    """All directed paths from start to end; more than cap raise SizeCapExceeded.

    An index outside 0..n-1 raises :class:`NotAPath`.  Depth-first over
    an explicit stack of successor iterators, one more than the nodes on
    the path, entering only matchings above end, so the work is that of
    the paths found.  A recursive closure would be a reference cycle
    holding every path found until the cyclic collector ran.
    """
    P = matching_poset(G)
    if not (0 <= start < P.n and 0 <= end < P.n):
        raise NotAPath(f"unknown matching in {start} -> {end}: the indices are 0..{P.n - 1}")
    above = P.up_masks[end]
    down = P.down_covers
    out: list[tuple[int, ...]] = []
    path: list[int] = []
    todo = [iter((start,) if above >> start & 1 else ())]
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
            todo.append(b for b in down[here] if above >> b & 1)
    return out


# --- face poset and the ideal isomorphism for outerplane graphs -------------


@per_object
def face_poset_outerplane(G: PlaneBipartiteGraph) -> FinitePoset:
    """Order the inner faces by reachability in the oriented inner dual.

    A face is below another when the inner dual walks from the latter
    down to the former.  Requires a 2-connected outerplane host, whose
    inner dual is a tree: no arc is implied by a path of others, so the
    arcs are the covers as they are, and :class:`FinitePoset` certifies
    them.  A directed cycle in the inner dual is reported, never repaired.
    """
    if not is_outerplane_2connected(G):
        raise NotOuterplane("graph is not 2-connected outerplane")
    dual = oriented_dual(G, include_outer=False)
    pos = {f: i for i, f in enumerate(dual.nodes)}
    # each arc points from a face down to a face below it
    covers = sorted((pos[a.dst], pos[a.src]) for a in dual.arcs)
    try:
        return FinitePoset(dual.nodes, tuple(covers))
    except ParseError as exc:  # the covers hold a directed cycle
        raise DirectedCycleInInnerDual(
            "oriented inner dual has a directed cycle"
        ) from exc


def sigma(G: PlaneBipartiteGraph, M: Matching) -> frozenset[int]:
    """Faces enclosed by the cycles of M xor root: an ideal of the face poset.

    Only the interiors are read, and by one Jordan parity test on the
    whole difference.  Its cycles are disjoint, and on an outerplane host
    none lies inside another, whose vertices would then be off the outer
    walk; so a face is inside one of them exactly when it is inside an
    odd number.
    """
    face_poset_outerplane(G)  # raises NotOuterplane on any other host
    ext = extremal_matchings(G)
    i = matching_index(G).get(M)
    if i is None:  # the enumerated matchings were checked
        raise NotAMatching(f"{M!r} is not a perfect matching of the graph")
    masks = _flip_walk(G).masks
    return _faces_inside(G, masks[i] ^ masks[ext.root_index])


@dataclass(frozen=True, eq=False)
class MatchingIdealIso:
    """Certified isomorphism between the matching lattice and J(face poset)."""

    face_poset: FinitePoset
    ideal_of: tuple[frozenset[int], ...]  # matching index -> face ideal


def certify_ideal_map(
    P: FinitePoset, images: Sequence[frozenset], F: FinitePoset
) -> None:
    """Certify matching i -> images[i] (a set of F's labels) as an isomorphism
    onto J(F), by its covers (:func:`lattice.ideal_iso_refusal`); raise
    IsoFailure with the refusal otherwise.  J(F) itself is never built."""
    pos = {label: i for i, label in enumerate(F.labels)}
    d = [sum(1 << pos[x] for x in image) for image in images]
    below = [m ^ 1 << q for q, m in enumerate(F.down_masks)]
    refusal = ideal_iso_refusal(P, d, below, F.up_covers)
    if refusal is not None:
        raise IsoFailure(refusal)


def verify_iso_matchings_ideals(G: PlaneBipartiteGraph) -> MatchingIdealIso:
    """Check that sigma is an order isomorphism onto the ideals of F(G)."""
    F = face_poset_outerplane(G)
    P = matching_poset(G)
    images = tuple(sigma(G, M) for M in P.labels)
    certify_ideal_map(P, images, F)
    return MatchingIdealIso(face_poset=F, ideal_of=images)
