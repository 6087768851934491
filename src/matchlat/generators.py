"""Witness-graph families: fused-hexagon systems, outerplane realizations
of oriented trees, and exterior-edge linking of components.

Hexagonal systems use a brick-wall combinatorial layout with exact
integer coordinates that exist only inside this module: row 1 is the
longest row, rows stack upward shifted half a cell to the left, every
hexagon keeps two vertical edges, and each valley vertex is white.  Each
colour's three edge directions, clockwise in ``_LAYOUT_DIRECTIONS``, give
every rotation and each edge's kind; the outer face is the walk that takes
the left perimeter's first vertical downward.  Under that convention the
canonical root matching consists of the left-perimeter verticals, the
rising slants of the bottom perimeter, and falling slants everywhere else;
construction validates this against the flip orientation and fails loudly
on any mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    order_ideal_lattice,
    young_poset,
)
from .matching import (
    PROPER,
    Matching,
    _alternating_faces,
    check_matching,
    classify_alternating_faces,
    enumerate_perfect_matchings,
    kasteleyn_count,
)
from .plane_graph import (
    BLACK,
    WHITE,
    PlaneBipartiteGraph,
    Step,
    _build_graph,
    _faces_inside,
    edge_ends,
    edge_mask,
    incident_edge_masks,
    is_elementary,
    oriented_dual,
    walk_cycle,
)
from .ztransform import certify_ideal_map, matching_lattice, matching_poset

VERTICAL = "vertical"
RISING = "rising"  # left-low to right-up
FALLING = "falling"  # left-up to right-low

# each colour's three layout directions, clockwise from the (-1, 0) ray
# with y growing upward: a vertex's rotation lists its edges in this order
_LAYOUT_DIRECTIONS = {
    WHITE: ((-1, 1), (1, 1), (0, -2)),
    BLACK: ((0, 2), (1, -1), (-1, -1)),
}


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
    colors = tuple(WHITE if y % 3 == 1 else BLACK for _, y in coords)
    edge_at: dict[tuple[int, tuple[int, int]], int] = {}  # (vertex, direction)
    kinds: list[str] = []
    for eid, (u, v) in enumerate(edges):
        dx, dy = coords[v][0] - coords[u][0], coords[v][1] - coords[u][1]
        edge_at[u, (dx, dy)] = edge_at[v, (-dx, -dy)] = eid
        kinds.append(VERTICAL if dx == 0 else RISING if dx * dy > 0 else FALLING)
    rotation = [
        [edge_at[v, d] for d in _LAYOUT_DIRECTIONS[c] if (v, d) in edge_at]
        for v, c in enumerate(colors)
    ]

    # hexagon (1, 1) walks the left perimeter's first vertical upward, the
    # outer face downward, and each step lies on exactly one traced walk
    down = (vid_at[U(1, 0)], vid_at[D(1, 0)])

    def outer_of(walks: list[list[Step]]) -> int:
        return next(k for k, w in enumerate(walks) if any(s[1:] == down for s in w))

    G = _build_graph(colors, edges, rotation, outer_of, caps)

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
        return edge_at[vid_at[p], (q[0] - p[0], q[1] - p[1])]

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

    H = TruncatedParallelogram(
        spec=spec,
        graph=G,
        hexagon_face=hexagon_face,
        face_hexagon=face_hexagon,
        root_edges=frozenset(root),
        forcing_edge=eid_of(U(1, 0), D(1, 0)),
        left_perimeter=frozenset(left),
        bottom_perimeter=frozenset(bottom),
        edge_kind=tuple(kinds),
    )

    # the root is the bottom of the lattice: it has an up-flip, so an
    # alternating face, and no down-flip, so no proper one
    tags = classify_alternating_faces(G, H.root_matching())
    if not tags or any(cls == PROPER for _, cls in tags):
        raise EmbeddingConflict(
            "root matching has no alternating face or a proper one; the "
            "clockwise convention is broken"
        )
    if not is_elementary(G, H.root_edges):
        raise EmbeddingConflict("generated hexagonal system is not elementary")
    return H


def hexagon_poset(spec: TruncatedParallelogramSpec) -> FinitePoset:
    """Hexagons ordered componentwise: (i,j) <= (k,l) iff i <= k and j <= l,
    the Young-shape poset of the row lengths."""
    return young_poset(spec.rows)


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
    check_matching(H.graph, M)
    return _geometry(H, M)[0]


def _geometry(
    H: TruncatedParallelogram, M: Matching
) -> tuple[SubparallelogramView, list[tuple[int, str]]]:
    """:func:`matching_geometry` of a matching known to be a perfect
    matching of H, with its alternating faces as
    :func:`~matching.classify_alternating_faces` tags them."""
    G = H.graph
    in_m = M.edge_set  # built once: Matching.edge_set makes a new frozenset
    diff = in_m ^ H.root_edges
    lb = H.left_perimeter | H.bottom_perimeter
    if not diff:
        cycle: frozenset[int] = frozenset()
        hexes: frozenset = frozenset()
        path = frozenset(lb)
    else:
        # a difference of two perfect matchings is 2-regular as it stands
        mask = edge_mask(G.n_edges, diff)
        steps = walk_cycle(G, mask)
        if len(steps) != len(diff):
            raise NotAMatching(
                "difference with the root matching is not a single cycle"
            )
        cycle = frozenset(eid for eid, _, _ in steps)
        if H.forcing_edge not in cycle:
            raise IsoFailure("root-difference cycle misses the forcing edge")
        hexes = frozenset(H.face_hexagon[f] for f in _faces_inside(G, mask))
        path = frozenset(lb ^ cycle)

    _check_alternating_path(H, in_m, path)
    for eid in in_m - path:
        if H.edge_kind[eid] != FALLING:
            raise IsoFailure(
                f"matching edge {eid} off the path is not a falling slant"
            )
    faces = _alternating_faces(G, in_m)
    _check_alternating_hexagons(H, faces, path, hexes)
    view = SubparallelogramView(
        host=H, matching=M, cycle_edges=cycle, hexagons=hexes, path_edges=path
    )
    return view, faces


def _check_alternating_path(
    H: TruncatedParallelogram, in_m: frozenset[int], path: frozenset[int]
) -> None:
    """Check that path is a simple path alternating in the matching whose
    edge set is in_m, with both end edges in it.

    Vertex masks give the degrees: no vertex may meet three path edges
    and exactly two may meet one.  The walk from the smaller of those two
    must then cover every path edge, or the set is a path plus cycles.
    """
    G = H.graph
    ends, inc, n_edges = edge_ends(G), incident_edge_masks(G), G.n_edges
    once = twice = thrice = 0  # vertices met at least 1, 2 and 3 times
    for eid in path:
        x = ends[eid]
        thrice |= twice & x
        twice |= once & x
        once |= x
    leaves = once ^ twice
    if thrice or leaves.bit_count() != 2:
        raise IsoFailure("path edge set is not a simple path")
    rest = edge_mask(n_edges, path)
    v = (leaves & -leaves).bit_length() - 1
    state = None
    while bit := inc[v] & rest:
        rest ^= bit  # a walked edge is never taken again
        eid = n_edges - bit.bit_length()
        inm = eid in in_m
        if state is None and not inm:
            raise IsoFailure("path end edge is not in the matching")
        if inm == state:
            raise IsoFailure("path is not alternating")
        state = inm
        v = G.other_end(eid, v)
    if rest:
        raise IsoFailure("path edge set is not a simple path")
    if state is not True:
        raise IsoFailure("path end edge is not in the matching")


def _check_alternating_hexagons(
    H: TruncatedParallelogram,
    faces: list[tuple[int, str]],
    path: frozenset[int],
    hexes: frozenset,
) -> None:
    """Check a matching's alternating faces, as (face id, class), against
    its path and bounded hexagon set."""
    G = H.graph
    for fid, cls in faces:
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
    lattice isomorphism search against J(F), built for that alone.  The
    matchings come from the certified enumeration, so none is checked
    again, and each one's alternating faces are classified once.
    """
    G = H.graph
    order = matching_poset(G)
    images: list[frozenset] = []
    faces: list[list[tuple[int, str]]] = []
    for M in order.labels:
        view, tags = _geometry(H, M)
        images.append(view.hexagons)
        faces.append(tags)
    P = hexagon_poset(H.spec)
    certify_ideal_map(order, images, P)

    # join-irreducible matchings carry a unique maximal hexagon, which is
    # also their unique proper alternating face
    pos = {lab: k for k, lab in enumerate(P.labels)}
    for i, image in enumerate(images):
        if len(order.down_covers[i]) != 1:
            continue
        maxima = [
            hx for hx in image
            if not any(P.labels[u] in image for u in P.up_covers[pos[hx]])
        ]
        proper = [
            H.face_hexagon[fid] for fid, cls in faces[i] if cls == PROPER
        ]
        if len(maxima) != 1 or proper != maxima:
            raise IsoFailure(
                f"join-irreducible matching {i} lacks a unique top hexagon"
            )

    JL, _ = order_ideal_lattice(P, G.caps)
    generic = lattice_isomorphic(matching_lattice(G), JL)
    if not generic.isomorphic:
        raise IsoFailure(f"generic isomorphism test refused: {generic.refusal}")
    return ParallelogramIso(hexagon_order=P, ideal_of=tuple(images), generic=generic)


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
    tree: OrientedTree, caps: SizeCaps = DEFAULT_CAPS
) -> TreeOuterplane:
    """Realize an oriented tree as the oriented inner dual of a
    2-connected outerplane bipartite graph.

    Every tree node v becomes an inner face: a cycle of length
    2 * max(in(v), out(v), 2), since the face's black-to-white and
    white-to-black steps alternate and each carries one arc.  The root's
    face is a ring of fresh vertices; breadth first, each child face is
    glued onto a free step of its parent's walk, and faces for adjacent
    nodes overlap in that one edge, whose traversal direction encodes the
    arc.  The gluing keeps each vertex's clockwise neighbours, so the
    rotation system comes out of it directly; tracing it must give back
    every declared walk plus one outer face, and the resulting inner dual
    is certified to equal the tree arc for arc.
    """
    caps.check_inner_faces(len(tree.nodes))

    def face_len(v: int) -> int:
        return 2 * max(tree.in_degree(v), tree.out_degree(v), 2)

    root = min(tree.nodes)
    ring = list(range(face_len(root)))
    colors = [WHITE if k % 2 == 0 else BLACK for k in ring]
    # a walk p -> v -> s puts s just before p in v's clockwise neighbours
    clockwise = [[ring[k + 1 - len(ring)], ring[k - 1]] for k in ring]
    face_walk: dict[int, list[int]] = {root: ring}
    # slot k of face v is the walk step walk[k] -> walk[k+1]; it can host
    # an outgoing arc if walk[k] is black, an incoming arc if white
    used_slots: dict[int, set[int]] = {root: set()}

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
            face_walk[u] = _glue_face(colors, clockwise, a, b, face_len(u))
            used_slots[u] = {0}  # the shared edge occupies slot 0 of the child
            queue.append(u)

    edges = sorted((v, w) for v, nbrs in enumerate(clockwise) for w in nbrs if v < w)
    edge_id = {pair: k for k, pair in enumerate(edges)}
    rotation = []
    for v, nbrs in enumerate(clockwise):
        # where a rotation list starts shows in the graph's JSON: it ends
        # at the first neighbour a set of them, added in ascending order, yields
        k = nbrs.index(next(iter(set(sorted(nbrs))))) + 1
        rotation.append(
            [edge_id[(min(v, w), max(v, w))] for w in nbrs[k:] + nbrs[:k]]
        )

    step_node = {
        (walk[k - 1], walk[k]): v
        for v, walk in face_walk.items()
        for k in range(len(walk))
    }
    traced: dict[int, int] = {}

    def outer_of(walks: list[list[Step]]) -> int:
        outer = None
        for fid, steps in enumerate(walks):
            _, tail, head = steps[0]
            v = step_node.get((tail, head))
            if v is None:
                if outer is not None:
                    raise EmbeddingConflict("more than one undeclared face after tracing")
                outer = fid
            elif len(steps) != len(face_walk[v]) or any(
                step_node.get((t, h)) != v for _, t, h in steps
            ):
                raise EmbeddingConflict(
                    f"traced face {fid} is not the declared walk of node {v}"
                )
            else:
                traced[v] = fid
        if outer is None or len(traced) != len(face_walk):
            raise EmbeddingConflict("tracing did not recover the declared faces")
        return outer

    G = _build_graph(colors, edges, rotation, outer_of, caps)
    node_face = {v: traced[v] for v in tree.nodes}

    dual = oriented_dual(G, include_outer=False)
    want_arcs = {(node_face[u], node_face[v]) for u, v in tree.arcs}
    if dual.arc_set != frozenset(want_arcs):
        raise IsoFailure("oriented inner dual does not match the tree orientation")
    return TreeOuterplane(tree=tree, graph=G, node_face=node_face)


def _glue_face(
    colors: list[int], clockwise: list[list[int]], a: int, b: int, length: int
) -> list[int]:
    """Glue a face of ``length`` edges onto the step a -> b of a glued
    face walk and return its walk b -> a -> fresh vertices -> b.

    The fresh vertices alternate in color from a.  In clockwise order the
    first fresh vertex goes just before b at a, and the last just after a
    at b, so the new walk turns there and the old one still does.
    """
    first = len(colors)
    walk = [b, a, *range(first, first + length - 2)]
    colors.extend(colors[a] ^ (k & 1) for k in range(1, length - 1))
    clockwise.extend(
        [walk[(k + 1) % length], walk[k - 1]] for k in range(2, length)
    )
    at_a = clockwise[a]
    at_a.insert(at_a.index(b), walk[2])
    at_b = clockwise[b]
    at_b.insert(at_b.index(a) + 1, walk[-1])
    return walk


# --- linking components -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LinkedGraph:
    """Chain of components joined by forbidden exterior edges."""

    graph: PlaneBipartiteGraph
    new_edges: tuple[int, ...]


def link_components(
    graphs: Sequence[PlaneBipartiteGraph], caps: SizeCaps = DEFAULT_CAPS
) -> LinkedGraph:
    """Join components with new exterior edges between opposite colors.

    Each consecutive pair is connected by one edge embedded in the shared
    outer face; the new edges lie in no perfect matching, so the matching
    lattice of the result is the product of the components' lattices.
    Each component must have a perfect matching: its Kasteleyn count says
    so with no enumeration, which runs only where the count gives none.
    """
    if not graphs:
        raise ParseError("at least one graph is required")
    for G in graphs:
        count = kasteleyn_count(G)
        if count == 0 or count is None and not enumerate_perfect_matchings(G):
            raise NoPerfectMatching("every component needs a perfect matching")
    if len(graphs) == 1:
        return LinkedGraph(graph=graphs[0], new_edges=())

    cur = graphs[0]
    prev_lo = 0  # the last linked component holds vertices prev_lo and up
    new_edges: list[int] = []
    for nxt in graphs[1:]:
        cur, new_eid = _link_pair(cur, nxt, prev_lo, cur.n_vertices, caps)
        prev_lo = cur.n_vertices - nxt.n_vertices
        new_edges.append(new_eid)
    return LinkedGraph(graph=cur, new_edges=tuple(new_edges))


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

    def outer_of(walks: list[list[Step]]) -> int:
        for fid, steps in enumerate(walks):
            if any(eid == new_eid for eid, _, _ in steps):
                return fid
        raise EmbeddingConflict("merged outer face lost the connecting edge")

    return _build_graph(colors, edges, rotation, outer_of, caps), new_eid


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
        # P and T check the hexagon count before building their rows
        if s.startswith("P(") and s.endswith(")"):
            m, n = (int(x) for x in s[2:-1].split(","))
            if n < 1:
                m = min(m, 1)  # one row already shows the bad length
            elif m >= 1:
                caps.check_inner_faces(m * n)
            return truncated_parallelogram(parallelogram_spec(m, n), caps)
        if s.startswith("T(") and s.endswith(")"):
            (m,) = (int(x) for x in s[2:-1].split(","))
            if m >= 1:
                caps.check_inner_faces(m * (m + 1) // 2)
            return truncated_parallelogram(prolate_triangle_spec(m), caps)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"cannot parse generator spec {text!r}: {exc}") from exc
    raise ParseError(f"unknown generator spec {text!r}")
