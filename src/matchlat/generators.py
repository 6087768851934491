"""Witness-graph families: fused-hexagon systems, outerplane realizations
of oriented trees, and exterior-edge linking of components.

Hexagonal systems use a brick-wall combinatorial layout with exact
integer coordinates that exist only inside this module: row 1 is the
longest row, rows stack upward shifted half a cell to the left, every
hexagon keeps two vertical edges, and each valley vertex is white.  Under
that convention the canonical root matching consists of the left-perimeter
verticals, the rising slants of the bottom perimeter, and falling slants
everywhere else; construction validates this against the flip orientation
and fails loudly on any mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .caps import DEFAULT_CAPS, SizeCaps
from .derive import component_labels
from .errors import (
    ColorClash,
    EmbeddingConflict,
    InvalidRowLengths,
    IsoFailure,
    NoPerfectMatching,
    NotAMatching,
    NotATree,
    ParseError,
)
from .lattice import (
    FinitePoset,
    IsoResult,
    lattice_isomorphic,
)
from .matching import (
    PROPER,
    Matching,
    check_matching,
    classify_alternating_faces,
    enumerate_perfect_matchings,
    _cycles_of_edge_set,
)
from .plane_graph import (
    BLACK,
    WHITE,
    PlaneBipartiteGraph,
    _trace_rotation,
    build_graph,
    faces_inside_cycle,
    oriented_dual,
)

VERTICAL = "vertical"
RISING = "rising"  # left-low to right-up
FALLING = "falling"  # left-up to right-low


@dataclass(frozen=True)
class TruncatedParallelogramSpec:
    """Row lengths r_1 >= r_2 >= ... >= r_m > 0, hexagons per row."""

    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(int(r) for r in self.rows))
        if not self.rows:
            raise InvalidRowLengths("at least one row is required")
        if any(r <= 0 for r in self.rows):
            raise InvalidRowLengths("row lengths must be positive")
        if any(a < b for a, b in zip(self.rows, self.rows[1:])):
            raise InvalidRowLengths("row lengths must be non-increasing")

    @property
    def n_hexagons(self) -> int:
        return sum(self.rows)


def parallelogram_spec(m: int, n: int) -> TruncatedParallelogramSpec:
    return TruncatedParallelogramSpec(rows=(n,) * m)


def prolate_triangle_spec(m: int) -> TruncatedParallelogramSpec:
    return TruncatedParallelogramSpec(rows=tuple(range(m, 0, -1)))


@dataclass(frozen=True, eq=False)
class TruncatedParallelogram:
    """A generated hexagonal system plus its construction metadata."""

    spec: TruncatedParallelogramSpec
    graph: PlaneBipartiteGraph
    hexagon_face: dict  # (row, col) -> inner face id
    face_hexagon: dict  # inner face id -> (row, col)
    root_edges: frozenset[int]
    forcing_edge: int
    left_perimeter: frozenset[int]
    bottom_perimeter: frozenset[int]
    edge_kind: tuple[str, ...]

    @property
    def rows(self) -> tuple[int, ...]:
        return self.spec.rows

    def root_matching(self) -> Matching:
        return Matching(tuple(sorted(self.root_edges)))


def _clockwise_rotation(coords: Sequence[tuple[int, int]],
                        edges: Sequence[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Per-vertex incident edges sorted clockwise as drawn (y grows upward)."""
    incident: list[list[int]] = [[] for _ in coords]
    for eid, (u, v) in enumerate(edges):
        incident[u].append(eid)
        incident[v].append(eid)

    def angle(v: int, eid: int) -> float:
        a, b = edges[eid]
        w = b if v == a else a
        dx = coords[w][0] - coords[v][0]
        dy = coords[w][1] - coords[v][1]
        return -math.atan2(dy, dx)

    return [tuple(sorted(inc, key=lambda e: angle(v, e)))
            for v, inc in enumerate(incident)]


def _signed_area(steps, coords) -> int:
    total = 0
    for _, tail, head in steps:
        (x1, y1), (x2, y2) = coords[tail], coords[head]
        total += x1 * y2 - x2 * y1
    return total


def truncated_parallelogram(
    spec: TruncatedParallelogramSpec, caps: SizeCaps = DEFAULT_CAPS
) -> TruncatedParallelogram:
    """Build the hexagonal system for a row profile.

    The returned wrapper certifies that the canonical root matching has
    an alternating face and no proper one (which pins down the clockwise
    convention) and that the graph is elementary.
    """
    caps.check_inner_faces(spec.n_hexagons)
    rows = spec.rows
    m = len(rows)

    coords: list[tuple[int, int]] = []
    vid_at: dict[tuple[int, int], int] = {}

    def vertex(xy: tuple[int, int]) -> int:
        if xy not in vid_at:
            vid_at[xy] = len(coords)
            coords.append(xy)
        return vid_at[xy]

    # role coordinates; row i is 1-based, hexagon centers at (2j - i, 3i)
    def U(i: int, j: int) -> tuple[int, int]:
        return (2 * j - i + 1, 3 * i + 1)

    def D(i: int, j: int) -> tuple[int, int]:
        return (2 * j - i + 1, 3 * i - 1)

    def peak(i: int, j: int) -> tuple[int, int]:
        return (2 * j - i, 3 * i + 2)

    def valley(i: int, j: int) -> tuple[int, int]:
        return (2 * j - i, 3 * i - 2)

    hex_vertices: dict[tuple[int, int], frozenset[int]] = {}
    edge_pairs: set[tuple[int, int]] = set()
    for i in range(1, m + 1):
        for j in range(1, rows[i - 1] + 1):
            ring = [
                vertex(peak(i, j)),
                vertex(U(i, j)),
                vertex(D(i, j)),
                vertex(valley(i, j)),
                vertex(D(i, j - 1)),
                vertex(U(i, j - 1)),
            ]
            hex_vertices[(i, j)] = frozenset(ring)
            for a, b in zip(ring, ring[1:] + ring[:1]):
                edge_pairs.add((min(a, b), max(a, b)))

    edges = sorted(edge_pairs)
    edge_id = {pair: k for k, pair in enumerate(edges)}
    colors = tuple(WHITE if y % 3 == 1 else BLACK for _, y in coords)
    rotation = _clockwise_rotation(coords, edges)

    walks = _trace_rotation(edges, rotation)
    areas = [_signed_area(w, coords) for w in walks]
    outer_candidates = [k for k, a in enumerate(areas) if a > 0]
    if len(outer_candidates) != 1:
        raise EmbeddingConflict("hexagon layout produced no unique outer face")
    G = build_graph(colors, edges, rotation, outer_candidates[0], caps)

    face_hexagon: dict[int, tuple[int, int]] = {}
    by_vertices = {verts: hx for hx, verts in hex_vertices.items()}
    for fid in G.inner_face_ids:
        hx = by_vertices.get(G.faces[fid].vertex_set)
        if hx is None:
            raise EmbeddingConflict(f"inner face {fid} is not a hexagon of the layout")
        face_hexagon[fid] = hx
    if len(face_hexagon) != spec.n_hexagons:
        raise EmbeddingConflict("hexagon/face correspondence is not a bijection")
    hexagon_face = {hx: fid for fid, hx in face_hexagon.items()}

    def eid_of(p: tuple[int, int], q: tuple[int, int]) -> int:
        a, b = vid_at[p], vid_at[q]
        return edge_id[(min(a, b), max(a, b))]

    root = set()
    for i in range(1, m + 1):
        root.add(eid_of(U(i, 0), D(i, 0)))
        for j in range(1, rows[i - 1] + 1):
            root.add(eid_of(peak(i, j), U(i, j)))
    for j in range(1, rows[0] + 1):
        root.add(eid_of(valley(1, j), D(1, j)))

    left = {eid_of(U(i, 0), D(i, 0)) for i in range(1, m + 1)}
    left |= {eid_of(D(i + 1, 0), U(i, 0)) for i in range(1, m)}
    bottom = set()
    for j in range(1, rows[0] + 1):
        bottom.add(eid_of(D(1, j - 1), valley(1, j)))
        bottom.add(eid_of(valley(1, j), D(1, j)))

    def kind(eid: int) -> str:
        u, v = edges[eid]
        (x1, y1), (x2, y2) = coords[u], coords[v]
        if x1 == x2:
            return VERTICAL
        if x1 > x2:
            (x1, y1), (x2, y2) = (x2, y2), (x1, y1)
        return RISING if y2 > y1 else FALLING

    kinds = tuple(kind(e) for e in range(len(edges)))

    H = TruncatedParallelogram(
        spec=spec,
        graph=G,
        hexagon_face=hexagon_face,
        face_hexagon=face_hexagon,
        root_edges=frozenset(root),
        forcing_edge=eid_of(U(1, 0), D(1, 0)),
        left_perimeter=frozenset(left),
        bottom_perimeter=frozenset(bottom),
        edge_kind=kinds,
    )

    # the root is the bottom of the lattice: it has an up-flip, so an
    # alternating face, and no down-flip, so no proper one
    tags = classify_alternating_faces(G, H.root_matching())
    if not tags or any(cls == PROPER for _, cls in tags):
        raise EmbeddingConflict(
            "root matching has no alternating face or a proper one; the "
            "clockwise convention is broken"
        )
    matchings = enumerate_perfect_matchings(G)
    used = set()
    for M in matchings:
        used.update(M.edge_ids)
    if len(used) != G.n_edges:
        raise EmbeddingConflict("generated hexagonal system is not elementary")
    return H


def hexagon_poset(spec: TruncatedParallelogramSpec) -> FinitePoset:
    """Hexagons ordered componentwise: (i,j) <= (k,l) iff i <= k and j <= l.

    Always an order ideal of the full grid on m rows by r_1 columns, so
    its covers are the grid's unit steps that stay inside it.
    """
    labels = [
        (i, j)
        for i in range(1, len(spec.rows) + 1)
        for j in range(1, spec.rows[i - 1] + 1)
    ]
    pos = {lab: k for k, lab in enumerate(labels)}
    covers = [
        (pos[(i, j)], pos[up])
        for i, j in labels
        for up in ((i + 1, j), (i, j + 1))
        if up in pos
    ]
    return FinitePoset(tuple(labels), tuple(sorted(covers)))


@dataclass(frozen=True, eq=False)
class SubparallelogramView:
    """Geometry of one matching: its root cycle, hexagon set, and path."""

    host: TruncatedParallelogram
    matching: Matching
    cycle_edges: frozenset[int]  # empty for the root matching
    hexagons: frozenset  # (row, col) labels bounded by the cycle
    path_edges: frozenset[int]


def matching_geometry(
    H: TruncatedParallelogram, M: Matching
) -> SubparallelogramView:
    """Compute and certify the matching's cycle/hexagon-set/path structure.

    Checks, exhaustively for this matching: the cycle passes through the
    forcing edge, the path is M-alternating with both end edges in M,
    every edge of M off the path is a falling slant, and every
    M-alternating hexagon shares exactly three consecutive edges with the
    path and is proper exactly when it lies in the hexagon set (an ideal,
    as :func:`verify_iso_parallelogram` certifies).
    """
    G = H.graph
    check_matching(G, M)
    diff = M.edge_set ^ H.root_edges
    lb = H.left_perimeter | H.bottom_perimeter
    if not diff:
        cycle: frozenset[int] = frozenset()
        hexes: frozenset = frozenset()
        path = frozenset(lb)
    else:
        cycles = _cycles_of_edge_set(G, diff)
        if len(cycles) != 1:
            raise NotAMatching(
                "difference with the root matching is not a single cycle"
            )
        cycle = cycles[0]
        if H.forcing_edge not in cycle:
            raise IsoFailure("root-difference cycle misses the forcing edge")
        inside = faces_inside_cycle(G, cycle)
        hexes = frozenset(H.face_hexagon[f] for f in inside)
        path = frozenset(lb ^ cycle)

    _check_alternating_path(H, M, path)
    for eid in M.edge_set - path:
        if H.edge_kind[eid] != FALLING:
            raise IsoFailure(
                f"matching edge {eid} off the path is not a falling slant"
            )
    _check_alternating_hexagons(H, M, path, hexes)
    return SubparallelogramView(
        host=H, matching=M, cycle_edges=cycle, hexagons=hexes, path_edges=path
    )


def _check_alternating_path(
    H: TruncatedParallelogram, M: Matching, path: frozenset[int]
) -> None:
    G = H.graph
    deg: dict[int, list[int]] = {}
    for eid in path:
        for v in G.edges[eid]:
            deg.setdefault(v, []).append(eid)
    ends = [v for v, es in deg.items() if len(es) == 1]
    if len(ends) != 2 or any(len(es) > 2 for es in deg.values()):
        raise IsoFailure("path edge set is not a simple path")
    # walk the path, checking alternation and end edges
    v = min(ends)
    prev = None
    state = None
    while True:
        nxt = [e for e in deg[v] if e != prev]
        if not nxt:
            break
        e = nxt[0]
        inm = e in M.edge_set
        if prev is None and not inm:
            raise IsoFailure("path end edge is not in the matching")
        if state is not None and inm == state:
            raise IsoFailure("path is not alternating")
        state = inm
        prev = e
        v = G.other_end(e, v)
    if state is not True:
        raise IsoFailure("path end edge is not in the matching")


def _check_alternating_hexagons(
    H: TruncatedParallelogram, M: Matching, path: frozenset[int], hexes: frozenset
) -> None:
    G = H.graph
    for fid, cls in classify_alternating_faces(G, M):
        hx = H.face_hexagon[fid]
        walk = G.faces[fid]
        on_path = [eid in path for eid in walk.edge_ids]
        count = sum(on_path)
        if count != 3:
            raise IsoFailure(
                f"alternating hexagon {hx} shares {count} edges with the path"
            )
        L = len(on_path)
        runs = sum(
            1 for k in range(L) if on_path[k] and not on_path[(k - 1) % L]
        )
        if runs != 1:
            raise IsoFailure(
                f"alternating hexagon {hx} path edges are not consecutive"
            )
        if (cls == PROPER) != (hx in hexes):
            raise IsoFailure(
                f"hexagon {hx} is {cls} but {'in' if hx in hexes else 'outside'} "
                "the bounded set"
            )


@dataclass(frozen=True, eq=False)
class ParallelogramIso:
    """Certified isomorphism: matchings onto ideals of the hexagon order."""

    hexagon_order: FinitePoset
    ideal_of: tuple[frozenset, ...]  # matching index -> hexagon ideal
    generic: IsoResult


def verify_iso_parallelogram(H: TruncatedParallelogram) -> ParallelogramIso:
    """Certify the matching lattice against the hexagon ideal lattice.

    Certifies the explicit map (matching to its bounded hexagon set) as
    an isomorphism onto the ideals, and cross-checks with the generic
    join-irreducible isomorphism test.
    """
    from .ztransform import certify_ideal_map, matching_lattice, matching_poset

    G = H.graph
    mp = matching_poset(G)
    images = tuple(matching_geometry(H, M).hexagons for M in mp.matchings)
    P = hexagon_poset(H.spec)
    JL = certify_ideal_map(mp, images, P, G.caps)

    # join-irreducible matchings carry a unique maximal hexagon, which is
    # also their unique proper alternating face
    pos = {lab: k for k, lab in enumerate(P.labels)}
    for i, image in enumerate(images):
        if len(mp.poset.down_covers[i]) != 1:
            continue
        maxima = [
            hx for hx in image
            if not any(P.labels[u] in image for u in P.up_covers[pos[hx]])
        ]
        proper = [
            H.face_hexagon[fid]
            for fid, cls in classify_alternating_faces(G, mp.matchings[i])
            if cls == PROPER
        ]
        if len(maxima) != 1 or proper != maxima:
            raise IsoFailure(
                f"join-irreducible matching {i} lacks a unique top hexagon"
            )

    generic = lattice_isomorphic(matching_lattice(G), JL)
    if not generic.isomorphic:
        raise IsoFailure(f"generic isomorphism test refused: {generic.refusal}")
    return ParallelogramIso(hexagon_order=P, ideal_of=images, generic=generic)


# --- outerplane realizations of oriented trees -------------------------------


@dataclass(frozen=True)
class OrientedTree:
    """An orientation of a tree, as nodes plus directed arcs."""

    nodes: tuple[int, ...]
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        nodes = set(self.nodes)
        if len(nodes) != len(self.nodes) or not nodes:
            raise NotATree("nodes must be nonempty and distinct")
        if len(self.arcs) != len(nodes) - 1:
            raise NotATree("a tree on n nodes has n - 1 arcs")
        seen_pairs = set()
        for u, v in self.arcs:
            if u == v or u not in nodes or v not in nodes:
                raise NotATree(f"bad arc ({u}, {v})")
            key = (min(u, v), max(u, v))
            if key in seen_pairs:
                raise NotATree(f"repeated tree edge {key}")
            seen_pairs.add(key)
        index = {v: i for i, v in enumerate(self.nodes)}
        arcs = ((index[u], index[v]) for u, v in self.arcs)
        if any(component_labels(len(index), arcs)):
            raise NotATree("underlying graph is not connected")

    def degree(self, v: int) -> int:
        return sum(1 for a in self.arcs if v in a)

    def out_degree(self, v: int) -> int:
        return sum(1 for u, _ in self.arcs if u == v)

    def in_degree(self, v: int) -> int:
        return sum(1 for _, w in self.arcs if w == v)


@dataclass(frozen=True, eq=False)
class TreeOuterplane:
    """Outerplane realization of an oriented tree, with face bookkeeping."""

    tree: OrientedTree
    graph: PlaneBipartiteGraph
    node_face: dict  # tree node -> inner face id


def tree_to_outerplane(
    tree: OrientedTree,
    optimize_face_degree: bool = False,
    caps: SizeCaps = DEFAULT_CAPS,
) -> TreeOuterplane:
    """Realize an oriented tree as the oriented inner dual of a
    2-connected outerplane bipartite graph.

    Every tree node becomes an inner face: a cycle of length twice the
    maximum tree degree (at least 4), or twice max(in-degree, out-degree,
    2) per node in optimized mode.  Faces for adjacent nodes overlap in
    one edge whose traversal direction encodes the arc; the resulting
    inner dual is certified to equal the tree arc for arc.
    """
    caps.check_inner_faces(len(tree.nodes))
    max_deg = max((tree.degree(v) for v in tree.nodes), default=0)

    def half_len(v: int) -> int:
        if optimize_face_degree:
            return max(tree.in_degree(v), tree.out_degree(v), 2)
        return max(max_deg, 2)

    colors: list[int] = []

    def new_vertex(color: int) -> int:
        colors.append(color)
        return len(colors) - 1

    face_walk: dict[int, list[int]] = {}
    # slot k of face v is the walk step walk[k] -> walk[k+1]; it can host
    # an outgoing arc if walk[k] is black, an incoming arc if white
    used_slots: dict[int, set[int]] = {}

    root = min(tree.nodes)
    L = half_len(root)
    ring = [new_vertex(WHITE if k % 2 == 0 else BLACK) for k in range(2 * L)]
    face_walk[root] = ring
    used_slots[root] = set()

    adjacency: dict[int, list[int]] = {v: [] for v in tree.nodes}
    arc_set = set(tree.arcs)
    for u, v in tree.arcs:
        adjacency[u].append(v)
        adjacency[v].append(u)

    queue = [root]
    seen = {root}
    while queue:
        v = queue.pop(0)
        walk = face_walk[v]
        for u in sorted(adjacency[v]):
            if u in seen:
                continue
            seen.add(u)
            outgoing = (v, u) in arc_set
            # outgoing arc v->u: face v must traverse the shared edge from
            # its black end to its white end
            want = BLACK if outgoing else WHITE
            slot = None
            for k in range(len(walk)):
                if k in used_slots[v]:
                    continue
                if colors[walk[k]] == want:
                    slot = k
                    break
            if slot is None:
                raise EmbeddingConflict(f"no free slot of the needed type at node {v}")
            used_slots[v].add(slot)
            a = walk[slot]
            b = walk[(slot + 1) % len(walk)]
            Lu = half_len(u)
            fresh = []
            c = colors[a]
            for _ in range(2 * Lu - 2):
                c = 1 - c
                fresh.append(new_vertex(c))
            face_walk[u] = [b, a] + fresh
            used_slots[u] = {0}  # the shared edge occupies slot 0 of the child
            queue.append(u)

    G, traced = _graph_from_inner_walks(colors, face_walk.values(), caps)
    node_face = {v: traced[_walk_key(face_walk[v])] for v in tree.nodes}

    dual = oriented_dual(G, include_outer=False)
    want_arcs = {(node_face[u], node_face[v]) for u, v in tree.arcs}
    if dual.arc_set != frozenset(want_arcs):
        raise IsoFailure("oriented inner dual does not match the tree orientation")
    return TreeOuterplane(tree=tree, graph=G, node_face=node_face)


def _walk_key(walk: Sequence[int]) -> frozenset[tuple[int, int]]:
    return frozenset(
        (walk[k], walk[(k + 1) % len(walk)]) for k in range(len(walk))
    )


def _graph_from_inner_walks(
    colors: Sequence[int], walks: Iterable[Sequence[int]], caps: SizeCaps
) -> tuple[PlaneBipartiteGraph, dict[frozenset[tuple[int, int]], int]]:
    """Assemble a plane graph from declared clockwise inner-face walks.

    The rotation at each vertex is reconstructed from the walks'
    successor transitions; exactly one transition per boundary vertex is
    missing (the outer passage) and is forced.  Returns the loaded graph
    and a map from each declared walk to its traced face id.
    """
    walks = [list(w) for w in walks]
    pairs: set[tuple[int, int]] = set()
    succ: dict[int, dict[int, int]] = {v: {} for v in range(len(colors))}
    for walk in walks:
        n = len(walk)
        for k in range(n):
            a, b, c = walk[k], walk[(k + 1) % n], walk[(k + 2) % n]
            pairs.add((min(a, b), max(a, b)))
            if a in succ[b]:
                raise EmbeddingConflict(f"two walks arrive at {b} from {a}")
            succ[b][a] = c

    edges = sorted(pairs)
    edge_id = {pair: k for k, pair in enumerate(edges)}
    neighbors: dict[int, set[int]] = {v: set() for v in range(len(colors))}
    for u, v in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)

    rotation: list[list[int]] = []
    for v in range(len(colors)):
        nbrs = neighbors[v]
        missing_from = nbrs - set(succ[v].keys())
        missing_to = nbrs - set(succ[v].values())
        if len(missing_from) != 1 or len(missing_to) != 1:
            raise EmbeddingConflict(f"vertex {v} is not on the outer boundary once")
        succ[v][missing_from.pop()] = missing_to.pop()
        start = next(iter(nbrs))
        cycle = [start]
        while True:
            nxt = succ[v][cycle[-1]]
            if nxt == start:
                break
            cycle.append(nxt)
            if len(cycle) > len(nbrs):
                raise EmbeddingConflict(f"rotation at vertex {v} is not a single cycle")
        if len(cycle) != len(nbrs):
            raise EmbeddingConflict(f"rotation at vertex {v} is not a single cycle")
        # the tracer leaves along the rotation predecessor, so the stored
        # clockwise order is the transition cycle reversed
        cycle.reverse()
        rotation.append(
            [edge_id[(min(v, w), max(v, w))] for w in cycle]
        )

    traced_walks = _trace_rotation(edges, rotation)
    declared = { _walk_key(w): None for w in walks }
    outer = None
    traced_ids: dict[frozenset[tuple[int, int]], int] = {}
    for fid, steps in enumerate(traced_walks):
        key = frozenset((t, h) for _, t, h in steps)
        if key in declared:
            traced_ids[key] = fid
        else:
            if outer is not None:
                raise EmbeddingConflict("more than one undeclared face after tracing")
            outer = fid
    if outer is None or len(traced_ids) != len(walks):
        raise EmbeddingConflict("tracing did not recover the declared faces")
    return build_graph(colors, edges, rotation, outer, caps), traced_ids


# --- linking components -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LinkedGraph:
    """Chain of components joined by forbidden exterior edges."""

    graph: PlaneBipartiteGraph
    new_edges: tuple[int, ...]
    component_ranges: tuple[tuple[int, int], ...]  # [start, end) vertex ranges


def link_components(
    graphs: Sequence[PlaneBipartiteGraph], caps: SizeCaps = DEFAULT_CAPS
) -> LinkedGraph:
    """Join components with new exterior edges between opposite colors.

    Each consecutive pair is connected by one edge embedded in the shared
    outer face; the new edges lie in no perfect matching, so the matching
    lattice of the result is the product of the components' lattices.
    """
    if not graphs:
        raise ParseError("at least one graph is required")
    for G in graphs:
        if not enumerate_perfect_matchings(G):
            raise NoPerfectMatching("every component needs a perfect matching")
    if len(graphs) == 1:
        G = graphs[0]
        return LinkedGraph(
            graph=G, new_edges=(), component_ranges=((0, G.n_vertices),)
        )

    cur = graphs[0]
    ranges = [(0, cur.n_vertices)]
    new_edges: list[int] = []
    for nxt in graphs[1:]:
        prev_lo, prev_hi = ranges[-1]
        cur, new_eid = _link_pair(cur, nxt, prev_lo, prev_hi, caps)
        ranges.append((cur.n_vertices - nxt.n_vertices, cur.n_vertices))
        new_edges.append(new_eid)
    return LinkedGraph(
        graph=cur, new_edges=tuple(new_edges), component_ranges=tuple(ranges)
    )


def _outer_corner_insert(
    rotation: list[list[int]], G: PlaneBipartiteGraph, v: int, new_eid: int
) -> None:
    """Insert a new edge into v's rotation inside its first outer corner."""
    outer = G.faces[G.outer_face]
    arriving = None
    for eid, _tail, head in outer.steps:
        if head == v:
            arriving = eid
            break
    if arriving is None:
        raise EmbeddingConflict(f"vertex {v} is not on the outer boundary")
    # the outer walk leaves along the rotation predecessor of the arriving
    # edge, so splicing just before it lands the new edge in that corner
    k = rotation[v].index(arriving)
    rotation[v].insert(k, new_eid)


def _link_pair(
    cur: PlaneBipartiteGraph,
    nxt: PlaneBipartiteGraph,
    prev_lo: int,
    prev_hi: int,
    caps: SizeCaps,
) -> tuple[PlaneBipartiteGraph, int]:
    offset = cur.n_vertices
    e_offset = cur.n_edges

    cur_outer = sorted(
        v for v in cur.faces[cur.outer_face].vertex_set if prev_lo <= v < prev_hi
    )
    nxt_outer = sorted(nxt.faces[nxt.outer_face].vertex_set)
    pair = None
    for a in cur_outer:
        for b in nxt_outer:
            if cur.colors[a] != nxt.colors[b]:
                pair = (a, b)
                break
        if pair:
            break
    if pair is None:
        raise ColorClash("no opposite-color pair on the outer boundaries")
    a, b = pair

    colors = cur.colors + nxt.colors
    edges = list(cur.edges) + [(u + offset, v + offset) for u, v in nxt.edges]
    new_eid = len(edges)
    edges.append((a, b + offset))

    rotation = [list(r) for r in cur.rotation] + [
        [e + e_offset for e in r] for r in nxt.rotation
    ]
    _outer_corner_insert(rotation, cur, a, new_eid)
    # same insertion on the second component, in its own indexing
    nxt_rot_local = [list(r) for r in nxt.rotation]
    _outer_corner_insert(nxt_rot_local, nxt, b, -1)
    rotation[b + offset] = [
        new_eid if e == -1 else e + e_offset for e in nxt_rot_local[b]
    ]

    walks = _trace_rotation(edges, rotation)
    outer = None
    for fid, steps in enumerate(walks):
        if any(eid == new_eid for eid, _, _ in steps):
            outer = fid
            break
    if outer is None:
        raise EmbeddingConflict("merged outer face lost the connecting edge")
    return build_graph(colors, edges, rotation, outer, caps), new_eid


# --- spec strings -------------------------------------------------------------


def parse_spec(text: str, caps: SizeCaps = DEFAULT_CAPS):
    """Parse a CLI generator spec into a built object.

    Forms: ``L(r1,...,rm)`` rows, ``P(m,n)`` parallelogram, ``T(m)``
    staircase profile, ``tree:u>v,...`` oriented tree (a bare ``tree:n``
    is the one-node tree).
    """
    s = text.strip()
    try:
        if s.startswith("tree:"):
            body = s[len("tree:"):]
            if ">" not in body:
                node = int(body)
                return tree_to_outerplane(OrientedTree((node,), ()), caps=caps)
            arcs = []
            for part in body.split(","):
                u, v = part.split(">")
                arcs.append((int(u), int(v)))
            nodes = tuple(sorted({x for arc in arcs for x in arc}))
            return tree_to_outerplane(OrientedTree(nodes, tuple(arcs)), caps=caps)
        if s.startswith("L(") and s.endswith(")"):
            rows = tuple(int(x) for x in s[2:-1].split(","))
            return truncated_parallelogram(TruncatedParallelogramSpec(rows), caps)
        if s.startswith("P(") and s.endswith(")"):
            m, n = (int(x) for x in s[2:-1].split(","))
            return truncated_parallelogram(parallelogram_spec(m, n), caps)
        if s.startswith("T(") and s.endswith(")"):
            (m,) = (int(x) for x in s[2:-1].split(","))
            return truncated_parallelogram(prolate_triangle_spec(m), caps)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"cannot parse generator spec {text!r}: {exc}") from exc
    raise ParseError(f"unknown generator spec {text!r}")
