"""Plane bipartite graphs given by an explicit combinatorial embedding.

A graph is described purely combinatorially: vertices carry a white/black
color and every vertex lists its incident edges in clockwise order as
drawn.  Faces are derived by walking the rotation system so that every
inner face comes out clockwise; "an edge goes from its white end to its
black end along a face" is then meaningful without coordinates.

The same convention drives the oriented dual: the dual arc for a shared
edge points out of the face whose clockwise walk traverses the edge from
its black end to its white end.

Cycles are integer edge masks, read through two tables kept per graph:
each vertex's incident-edge mask, and each face's path in a BFS tree of
the dual rooted at the outer face.  Every edge mask of the package is
canonical, edge e at bit ``n_edges - 1 - e`` (``edge_mask``, read back
by ``mask_edge_ids``), so descending masks are in canonical order.
``walk_cycle`` is the one cycle walk: from a 2-regular mask's lowest
edge, its highest bit, round its cycle.  Every edge set that is not
already known 2-regular is checked and split into cycles by
``_split_cycles`` alone: a degree test, then one walk per cycle, from
its smallest edge, and internal callers keep those walks.  A face lies
inside a cycle when its path crosses the cycle an odd number of times
(Jordan parity), and the inside face of each cycle edge gives that
edge's clockwise step.  All of it is O(|C| + F) per cycle.
``oracles.faces_inside_cycle_by_flood`` finds the same interiors by
flooding the dual.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .caps import DEFAULT_CAPS, SizeCaps
from .derive import component_labels, per_object
from .errors import (
    Disconnected,
    DuplicateEdge,
    EulerViolation,
    ImproperColoring,
    InputRequired,
    NotACycle,
    NotBipartite,
    NotOuterplane,
    ParseError,
)

WHITE = 0
BLACK = 1
COLOR_NAMES = ("white", "black")

# A directed traversal of an edge: (edge id, tail vertex, head vertex).
Step = tuple[int, int, int]

# The one id type ``load_graph`` passes without a look at each value, as
# every id parsed from JSON is; any other goes through ``_int``.
_JUST_INT = frozenset([int])


@dataclass(frozen=True)
class FaceWalk:
    """One face of the embedding as a closed walk of directed edge traversals.

    For inner faces the walk is the clockwise orientation of the drawing.
    The walk of a face with cut vertices or bridges on its boundary may
    repeat vertices or edges; ``is_simple_cycle`` distinguishes the clean
    case.
    """

    face_id: int
    steps: tuple[Step, ...]
    is_outer: bool = False

    @cached_property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(s[0] for s in self.steps)

    @cached_property
    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edge_ids)

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(s[1] for s in self.steps)

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    @cached_property
    def is_simple_cycle(self) -> bool:
        return (
            len(self.vertex_set) == len(self.steps)
            and len(self.edge_set) == len(self.steps)
        )

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True, eq=False)
class PlaneBipartiteGraph:
    """Immutable plane bipartite graph with derived faces.

    Instances are only created through :func:`build_graph`, which validates
    the 2-coloring, connectivity, simplicity, and Euler's formula for the
    rotation system.  All operations in this package are pure functions of
    such validated graphs.
    """

    colors: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    rotation: tuple[tuple[int, ...], ...]
    faces: tuple[FaceWalk, ...]
    outer_face: int
    caps: SizeCaps = DEFAULT_CAPS

    @property
    def n_vertices(self) -> int:
        return len(self.colors)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def other_end(self, edge_id: int, v: int) -> int:
        u, w = self.edges[edge_id]
        return w if v == u else u

    def white_end(self, edge_id: int) -> int:
        u, w = self.edges[edge_id]
        return u if self.colors[u] == WHITE else w

    @cached_property
    def inner_face_ids(self) -> tuple[int, ...]:
        return tuple(f.face_id for f in self.faces if not f.is_outer)

    @cached_property
    def incident_edges(self) -> tuple[tuple[int, ...], ...]:
        """Incident edge ids per vertex, in ascending id order."""
        inc: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for eid, (u, v) in enumerate(self.edges):
            inc[u].append(eid)
            inc[v].append(eid)
        return tuple(tuple(lst) for lst in inc)

    @cached_property
    def edge_traversals(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """For each edge, its two face traversals as (face_id, tail, head)."""
        trav: list[list[tuple[int, int, int]]] = [[] for _ in range(self.n_edges)]
        for f in self.faces:
            for eid, tail, head in f.steps:
                trav[eid].append((f.face_id, tail, head))
        for eid, lst in enumerate(trav):
            if len(lst) != 2:
                raise EulerViolation(f"edge {eid} traversed {len(lst)} times")
        return tuple(tuple(lst) for lst in trav)

    def edge_faces(self, edge_id: int) -> tuple[int, int]:
        (f1, _, _), (f2, _, _) = self.edge_traversals[edge_id]
        return f1, f2

    def to_json(self) -> dict:
        return {
            "vertices": [
                {"id": v, "color": COLOR_NAMES[c]} for v, c in enumerate(self.colors)
            ],
            "edges": [[u, v] for u, v in self.edges],
            "rotation": {str(v): list(rot) for v, rot in enumerate(self.rotation)},
            "outer_face": self.outer_face,
        }


def _trace_rotation(
    edges: Sequence[tuple[int, int]], rotation: Sequence[Sequence[int]]
) -> list[list[Step]]:
    """Walk every directed edge once, turning against the rotation.

    Arriving at v along edge e, the walk leaves along the predecessor of
    e in the clockwise rotation at v.  This keeps each face on the right
    of its walk, so inner faces are traced clockwise as drawn and the
    outer face counterclockwise; every generated hexagonal system checks
    this choice on its root matching (see the root check in
    ``generators.truncated_parallelogram``) and fails loudly if broken.

    The directed edges are numbered as darts: dart 2e is edge e leaving
    its first end, dart 2e + 1 edge e leaving its second end.  One list
    gives each dart's successor on its face, and the walks start at the
    lowest unused dart, so they come in the order of their first dart.
    """
    steps: list[Step] = []
    for eid, (u, v) in enumerate(edges):
        steps.append((eid, u, v))
        steps.append((eid, v, u))
    succ = [0] * len(steps)
    for v, rot in enumerate(rotation):
        if not rot:  # a vertex left with no edge: no dart arrives there
            continue
        prev = rot[-1]
        for eid in rot:
            # the dart into v along eid is followed by the dart out along prev
            succ[2 * eid + (edges[eid][0] == v)] = 2 * prev + (edges[prev][0] != v)
            prev = eid
    unused = bytearray(b"\x01") * len(steps)
    walks: list[list[Step]] = []
    for start in range(len(steps)):
        if not unused[start]:
            continue
        walk: list[Step] = []
        dart = start
        while unused[dart]:
            unused[dart] = 0
            walk.append(steps[dart])
            dart = succ[dart]
        if dart != start:
            raise EulerViolation("face walk did not close on its start")
        walks.append(walk)
    return walks


def load_graph(
    description: Mapping, caps: SizeCaps = DEFAULT_CAPS
) -> PlaneBipartiteGraph:
    """Parse a structured graph description, then build it with :func:`build_graph`.

    The description uses the JSON schema
    ``{"vertices": [{"id", "color"}], "edges": [[u, v], ...],
    "rotation": {vid: [edge ids clockwise]}, "outer_face": optional}``.
    Ids must be integers: ``1.7``, ``"1"`` or ``true`` is a ParseError,
    never coerced.
    """
    try:
        vertex_items = list(description["vertices"])
        edge_items = list(description["edges"])
        rotation_map = dict(description["rotation"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"missing or malformed field: {exc}") from exc

    colors_by_id: dict[int, int] = {}
    for item in vertex_items:
        try:
            vid = item["id"]
            if type(vid) is not int:
                vid = _int(vid, "vertex id")
            color = item["color"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed vertex entry {item!r}") from exc
        if color not in COLOR_NAMES:
            raise ParseError(f"unknown color {color!r} for vertex {vid}")
        if vid in colors_by_id:
            raise ParseError(f"duplicate vertex id {vid}")
        colors_by_id[vid] = COLOR_NAMES.index(color)
    n = len(colors_by_id)
    if sorted(colors_by_id) != list(range(n)):
        raise ParseError("vertex ids must be exactly 0..n-1")

    edges: list[tuple[int, int]] = []
    for item in edge_items:
        try:
            u, v = item
        except (TypeError, ValueError) as exc:
            raise ParseError(f"malformed edge entry {item!r}") from exc
        if type(u) is not int or type(v) is not int:
            u, v = _int(u, "edge end"), _int(v, "edge end")
        edges.append((u, v))

    rotation: list[tuple[int, ...]] = []
    for v in range(n):
        raw = rotation_map.get(str(v), rotation_map.get(v))
        if raw is None:
            raise ParseError(f"rotation missing for vertex {v}")
        try:
            rot = tuple(raw)
        except TypeError as exc:
            raise ParseError(f"rotation at vertex {v} is not a list") from exc
        if not _JUST_INT.issuperset(map(type, rot)):
            rot = tuple(_int(e, f"rotation entry at vertex {v}") for e in rot)
        rotation.append(rot)

    outer = description.get("outer_face")
    if outer is not None:
        outer = _int(outer, "outer_face")
    return build_graph(
        tuple(colors_by_id[v] for v in range(n)), edges, rotation, outer, caps
    )


def _int(value, what: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParseError(f"{what} must be an integer, got {value!r}")


def build_graph(
    colors: Sequence[int],
    edges: Sequence[tuple[int, int]],
    rotation: Sequence[Sequence[int]],
    outer_face: Optional[int] = None,
    caps: SizeCaps = DEFAULT_CAPS,
) -> PlaneBipartiteGraph:
    """Validate a typed graph and derive its faces.

    ``colors[v]`` is WHITE or BLACK, ``edges`` are vertex pairs and
    ``rotation[v]`` lists v's incident edge ids clockwise.  Checks the
    caps, the edge list, the 2-coloring, connectivity, that every rotation
    permutes its vertex's incident edges, and Euler's formula for the
    traced faces.  Without ``outer_face`` the unique longest face is outer.
    """
    return _build_graph(colors, edges, rotation, lambda walks: outer_face, caps)


def _build_graph(
    colors: Sequence[int],
    edges: Sequence[tuple[int, int]],
    rotation: Sequence[Sequence[int]],
    outer_of: Callable[[list[list[Step]]], Optional[int]],
    caps: SizeCaps,
) -> PlaneBipartiteGraph:
    """:func:`build_graph`, with the outer face ``outer_of(walks)`` of the
    traced face walks, so a generator that finds its outer face by looking
    at the walks traces the rotation once."""
    n = len(colors)
    if n == 0:
        raise ParseError("graph must have at least one vertex")
    caps.check_vertices(n)

    pairs: list[tuple[int, int]] = []
    seen_pairs: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge ({u}, {v}) references unknown vertex")
        if u == v:
            raise NotBipartite(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen_pairs:
            raise DuplicateEdge(f"edge {key} listed twice")
        seen_pairs.add(key)
        pairs.append(key)
    if not pairs:
        raise ParseError("graph must have at least one edge")

    for u, v in pairs:
        if colors[u] == colors[v]:
            # a proper coloring shows the graph bipartite, so the search
            # for an odd cycle, whose error comes first, runs only here
            _check_bipartite(n, pairs)
            raise ImproperColoring(
                f"edge ({u},{v}) joins two {COLOR_NAMES[colors[u]]} vertices"
            )
    unreachable = n - component_labels(n, pairs).count(0)
    if unreachable:
        raise Disconnected(f"graph has {unreachable} unreachable vertices")

    incident: list[list[int]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(pairs):
        incident[u].append(eid)
        incident[v].append(eid)
    rotation = tuple(tuple(rot) for rot in rotation)
    for v, rot in enumerate(rotation):
        if sorted(rot) != incident[v]:
            raise ParseError(
                f"rotation at vertex {v} is not a permutation of its incident edges"
            )

    walks = _trace_rotation(pairs, rotation)
    outer_face = outer_of(walks)
    n_faces = len(walks)
    if n - len(pairs) + n_faces != 2:
        raise EulerViolation(
            f"V - E + F = {n} - {len(pairs)} + {n_faces} != 2; rotation is not planar"
        )

    if outer_face is not None:
        if not (0 <= outer_face < n_faces):
            raise ParseError(f"outer_face {outer_face} out of range (F = {n_faces})")
    else:
        lengths = [len(w) for w in walks]
        longest = max(lengths)
        candidates = [i for i, ln in enumerate(lengths) if ln == longest]
        if len(candidates) != 1:
            raise InputRequired(
                "outer face is ambiguous (multiple faces of maximum length); "
                "supply outer_face explicitly"
            )
        outer_face = candidates[0]

    caps.check_inner_faces(n_faces - 1)

    faces = tuple(
        FaceWalk(face_id=i, steps=tuple(w), is_outer=(i == outer_face))
        for i, w in enumerate(walks)
    )
    return PlaneBipartiteGraph(
        colors=tuple(colors),
        edges=tuple(pairs),
        rotation=rotation,
        faces=faces,
        outer_face=outer_face,
        caps=caps,
    )


def load_graph_json(text: str, caps: SizeCaps = DEFAULT_CAPS) -> PlaneBipartiteGraph:
    """Parse JSON text with :func:`load_graph`.  Malformed JSON, nesting
    deeper than the decoder recurses and an integer over the interpreter's
    digit limit are each a ParseError."""
    try:
        description = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"invalid JSON: {exc}") from exc
    return load_graph(description, caps)


def load_graph_file(path, caps: SizeCaps = DEFAULT_CAPS) -> PlaneBipartiteGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read graph file: {exc}") from exc
    return load_graph_json(text, caps)


def _check_bipartite(n: int, edges: Sequence[tuple[int, int]]) -> None:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    side = [-1] * n
    for root in range(n):
        if side[root] >= 0:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if side[y] < 0:
                    side[y] = 1 - side[x]
                    stack.append(y)
                elif side[y] == side[x]:
                    raise NotBipartite("graph contains an odd cycle")


# --- oriented dual ----------------------------------------------------------


@dataclass(frozen=True)
class DualArc:
    src: int
    dst: int
    edge_id: int


@dataclass(frozen=True, eq=False)
class DualDigraph:
    """Oriented dual: one node per face, one arc per primal edge.

    The arc for edge e points out of the face whose clockwise walk
    traverses e from its black end to its white end.  Built with
    ``include_outer=False`` this is the oriented inner dual.
    """

    nodes: tuple[int, ...]
    arcs: tuple[DualArc, ...]

    @cached_property
    def arc_set(self) -> frozenset[tuple[int, int]]:
        return frozenset((a.src, a.dst) for a in self.arcs)


def oriented_dual(
    G: PlaneBipartiteGraph, include_outer: bool = True
) -> DualDigraph:
    """Orient the (inner) dual by the black-to-white traversal rule."""
    arcs: list[DualArc] = []
    for eid in range(G.n_edges):
        (f1, t1, _h1), (f2, _t2, _h2) = G.edge_traversals[eid]
        # exactly one traversal starts at the black end
        src, dst = (f1, f2) if G.colors[t1] == BLACK else (f2, f1)
        arcs.append(DualArc(src=src, dst=dst, edge_id=eid))
    if include_outer:
        nodes = tuple(f.face_id for f in G.faces)
        return DualDigraph(nodes=nodes, arcs=tuple(arcs))
    nodes = G.inner_face_ids
    keep = set(nodes)
    arcs = [a for a in arcs if a.src in keep and a.dst in keep]
    return DualDigraph(nodes=nodes, arcs=tuple(arcs))


# --- cycles and interiors ---------------------------------------------------


def edge_mask(n_edges: int, edge_ids: Iterable[int]) -> int:
    """The canonical mask of distinct edge ids: edge e at bit ``n_edges - 1 - e``."""
    return sum([1 << n_edges - 1 - eid for eid in edge_ids])


def mask_edge_ids(n_edges: int, mask: int) -> list[int]:
    """The edge ids of a canonical mask, ascending."""
    return [eid for eid, bit in enumerate(format(mask, f"0{n_edges}b")) if bit == "1"]


@per_object
def edge_ends(G: PlaneBipartiteGraph) -> tuple[int, ...]:
    """Each edge's two ends, as a vertex mask."""
    return tuple(1 << u | 1 << v for u, v in G.edges)


@per_object
def incident_edge_masks(G: PlaneBipartiteGraph) -> tuple[int, ...]:
    """Each vertex's incident edges, as an edge mask."""
    return tuple(edge_mask(G.n_edges, ids) for ids in G.incident_edges)


@per_object
def dual_tree(G: PlaneBipartiteGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A BFS tree of the dual rooted at the outer face: the faces in BFS
    order, and per face the edge it crosses to its parent (-1 at the root).

    One pass over the walks sums each edge's two face ids, so the face
    across edge e from f is that sum less f.  Each face's edges are
    crossed in walk order.
    """
    both = [0] * G.n_edges  # per edge, the sum of its two faces' ids
    for walk in G.faces:
        for eid, _, _ in walk.steps:
            both[eid] += walk.face_id
    parent: list[Optional[int]] = [None] * len(G.faces)
    parent[G.outer_face] = -1
    order = [G.outer_face]
    for f in order:
        for eid, _, _ in G.faces[f].steps:
            g = both[eid] - f
            if parent[g] is None:
                parent[g] = eid
                order.append(g)
    return tuple(order), tuple(parent)


@per_object
def dual_tree_paths(G: PlaneBipartiteGraph) -> tuple[int, ...]:
    """For each face, the edges its path crosses in :func:`dual_tree`.

    The outer face's path is empty.  A face lies inside a simple cycle
    exactly when any dual walk to it from the outer face crosses the cycle
    an odd number of times (Jordan), so one popcount of ``path & cycle``
    decides it.
    """
    order, parent = dual_tree(G)
    paths = [0] * len(G.faces)
    for g in order[1:]:
        eid = parent[g]
        paths[g] = paths[sum(G.edge_faces(eid)) - g] | 1 << G.n_edges - 1 - eid
    return tuple(paths)


def walk_cycle(G: PlaneBipartiteGraph, mask: int) -> list[Step]:
    """The cycle of a 2-regular edge mask through its lowest edge (highest
    bit), walked in canonical order: toward its smaller-id neighbour edge."""
    inc = incident_edge_masks(G)
    n_edges = G.n_edges
    first = 1 << mask.bit_length() - 1
    start = n_edges - mask.bit_length()
    a, b = G.edges[start]
    tail, head = (b, a) if inc[a] & mask ^ first > inc[b] & mask ^ first else (a, b)
    steps = [(start, tail, head)]
    bit = first
    while (bit := inc[head] & mask ^ bit) != first:
        eid = n_edges - bit.bit_length()
        u, v = G.edges[eid]
        tail, head = head, v if u == head else u
        steps.append((eid, tail, head))
    return steps


def _split_cycles(
    G: PlaneBipartiteGraph, edge_ids: Iterable[int]
) -> list[tuple[int, list[Step]]]:
    """Check an edge set and split it into its vertex-disjoint cycles.

    An unknown edge id or a set that is not 2-regular raises NotACycle.
    Each cycle comes as (canonical mask, canonical walk), ordered by
    smallest edge: each walk starts at the smallest edge of the cycles not
    yet taken, the highest bit left.  An empty set has no cycles.
    """
    n_edges, ends = G.n_edges, edge_ends(G)
    rest = once = twice = thrice = 0  # vertices met at least 1, 2 and 3 times
    for eid in frozenset(edge_ids):
        if not 0 <= eid < n_edges:
            raise NotACycle(f"unknown edge id {eid}")
        rest |= 1 << n_edges - 1 - eid
        x = ends[eid]
        thrice |= twice & x
        twice |= once & x
        once |= x
    if thrice or once != twice:
        raise NotACycle("edge set is not 2-regular")
    cycles: list[tuple[int, list[Step]]] = []
    while rest:
        steps = walk_cycle(G, rest)
        # the last cycle is all that is left, as is every one-cycle set
        ids = (eid for eid, _, _ in steps)
        mask = rest if len(steps) == rest.bit_count() else edge_mask(n_edges, ids)
        cycles.append((mask, steps))
        rest ^= mask
    return cycles


def _faces_inside(G: PlaneBipartiteGraph, mask: int) -> frozenset[int]:
    """Faces whose dual tree path crosses the cycle mask an odd number of times."""
    return frozenset(
        f for f, path in enumerate(dual_tree_paths(G)) if (path & mask).bit_count() & 1
    )


def _clockwise(
    G: PlaneBipartiteGraph, mask: int, steps: list[Step]
) -> tuple[list[Step], frozenset[int]]:
    """A cycle already walked by :func:`_split_cycles`, with each step
    turned clockwise, and the faces inside it.

    The clockwise orientation of a cycle is the orientation its interior
    faces use: every cycle edge is traversed by exactly one face inside
    the cycle, and those traversals are coherent, so they either all
    follow the walk or all run against it.
    """
    inside = _faces_inside(G, mask)
    senses: set[bool] = set()
    for eid, tail, _ in steps:
        (f1, t1, _), (f2, t2, _) = G.edge_traversals[eid]
        if (f1 in inside) == (f2 in inside):
            raise NotACycle(f"edge {eid} does not separate inside from outside")
        senses.add((t1 if f1 in inside else t2) == tail)
    if len(senses) != 1:
        raise NotACycle("interior traversals are not a coherent orientation")
    if not senses.pop():
        steps = [(eid, head, tail) for eid, tail, head in steps]
    return steps, inside


# --- elementary structure ---------------------------------------------------


def is_elementary(G: PlaneBipartiteGraph, matching: Iterable[int]) -> bool:
    """Whether every edge of G lies in some perfect matching, given one:
    G is a single edge, or one elementary component holds every vertex
    (:func:`elementary_components`).  ``oracles.elementary_structure``
    decides the same by enumeration.
    """
    everyone = (tuple(range(G.n_vertices)),)
    return G.n_vertices == 2 or elementary_components(G, matching) == everyone


def elementary_components(
    G: PlaneBipartiteGraph, matching: Iterable[int]
) -> tuple[tuple[int, ...], ...]:
    """The vertex sets of G's elementary components, given one perfect
    matching: each ascending, in the order of their smallest vertex.

    Orient the matching's edges white to black and the others black to
    white.  An edge outside the matching lies in another perfect matching
    exactly when it lies on an alternating cycle, which is a directed
    cycle, so when its ends share a strong component (Dulmage-Mendelsohn).
    The strong components of more than one vertex are the elementary
    components, and each lone vertex keeps its matching edge in every
    perfect matching.  ``oracles.elementary_structure`` finds the same
    components by enumeration.
    """
    return _strong_components(G.colors, G.edges, frozenset(matching))


def _strong_components(
    colors: Sequence[int], edges: Sequence[tuple[int, int]], chosen: frozenset[int]
) -> tuple[tuple[int, ...], ...]:
    """:func:`elementary_components` on plain vertex and edge lists: the
    strong components of more than one vertex when the chosen edges run
    white to black and the rest black to white.  Tarjan's algorithm, over
    an explicit stack of successor iterators, crosses each arc once."""
    succ: list[list[int]] = [[] for _ in colors]
    for eid, (u, v) in enumerate(edges):
        white, black = (u, v) if colors[u] == WHITE else (v, u)
        if eid in chosen:
            succ[white].append(black)
        else:
            succ[black].append(white)
    order = [0] * len(succ)  # discovery number from 1; 0 before the visit
    low = [0] * len(succ)
    done = [False] * len(succ)  # its strong component is complete
    stack: list[int] = []
    found: list[tuple[int, ...]] = []
    count = 0
    for root in range(len(succ)):
        if order[root]:
            continue
        count += 1
        order[root] = low[root] = count
        stack.append(root)
        todo = [(root, iter(succ[root]))]
        while todo:
            v, arcs = todo[-1]
            for w in arcs:
                if not order[w]:
                    count += 1
                    order[w] = low[w] = count
                    stack.append(w)
                    todo.append((w, iter(succ[w])))
                    break
                if not done[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                todo.pop()
                if todo and low[v] < low[todo[-1][0]]:
                    low[todo[-1][0]] = low[v]
                if low[v] == order[v]:
                    members = []
                    while not done[v]:
                        w = stack.pop()
                        done[w] = True
                        members.append(w)
                    if len(members) > 1:
                        found.append(tuple(sorted(members)))
    return tuple(sorted(found))


# --- e-cuts -----------------------------------------------------------------


def find_e_cuts(G: PlaneBipartiteGraph) -> list[int]:
    """The e-cuts of a 2-connected outerplane host, as canonical masks, descending.

    An e-cut is a minimal edge cut whose edges all touch white vertices of
    one of the two banks it leaves.  Walks every
    simple directed cycle of the full oriented dual through the outer-face
    node (length >= 2), depth first over an explicit stack of arc
    iterators, and maps each to its primal minimal edge cut.  On a
    2-connected outerplane host every dual cycle passes through the outer
    face, so the list is complete, and every vertex lies on the outer
    walk.  The cycle crosses exactly two outer edges, its first and its
    last; the two runs of the outer walk between them stay connected once
    the cut is removed, so they are the banks, and each cut is checked on
    walk positions alone.  Any other host raises :class:`NotOuterplane`:
    there the cuts whose dual cycle avoids the outer face would be missing.
    """
    if not is_outerplane_2connected(G):
        raise NotOuterplane("e-cuts need a 2-connected outerplane host")
    dual = oriented_dual(G, include_outer=True)
    f0 = G.outer_face
    walk = G.faces[f0].vertices
    at = {eid: k for k, eid in enumerate(G.faces[f0].edge_ids)}
    pos = [0] * G.n_vertices
    for k, v in enumerate(walk):
        pos[v] = k
    white_at = [pos[G.white_end(eid)] for eid in range(G.n_edges)]
    cuts: list[int] = []

    arcs_from: dict[int, list[DualArc]] = {f: [] for f in dual.nodes}
    for a in sorted(dual.arcs, key=lambda a: (a.dst, a.edge_id)):
        arcs_from[a.src].append(a)

    path_faces: list[int] = [f0]
    path_edges: list[int] = []
    on_path = 1 << f0  # the faces of path_faces, as a face mask
    todo = [iter(arcs_from[f0])]
    while todo:
        arc = next(todo[-1], None)
        if arc is None:
            todo.pop()
            if path_edges:
                on_path ^= 1 << path_faces.pop()
                path_edges.pop()
            continue
        if arc.dst == f0:  # no self-loop: a 2-connected host has no bridge
            cuts.append(_e_cut_mask(at, white_at, path_edges + [arc.edge_id]))
        elif not on_path >> arc.dst & 1:
            path_faces.append(arc.dst)
            path_edges.append(arc.edge_id)
            on_path |= 1 << arc.dst
            todo.append(iter(arcs_from[arc.dst]))
    cuts.sort(reverse=True)
    return cuts


def _e_cut_mask(at: dict[int, int], white_at: Sequence[int], edge_ids: list[int]) -> int:
    """The edge mask of one dual cycle's cut, checked on outer-walk positions.

    ``at`` maps each outer edge to its step index on the outer walk and
    ``white_at[e]`` is the walk position of edge e's white end.  The first
    and last cut edges are the outer ones, at steps i < j; the positions
    i+1 .. j form one bank, the rest the other, and every cut edge must
    have its white end in the same one.
    """
    i, j = sorted((at[edge_ids[0]], at[edge_ids[-1]]))
    white_in_run = [i < white_at[eid] <= j for eid in edge_ids]
    if (not white_in_run[0]) in white_in_run:
        raise AssertionError("cut edges touch white vertices of both banks (bug)")
    return edge_mask(len(white_at), edge_ids)


def is_outerplane_2connected(G: PlaneBipartiteGraph) -> bool:
    """All vertices on the outer face and every face walk a simple cycle."""
    outer = G.faces[G.outer_face]
    if outer.vertex_set != frozenset(range(G.n_vertices)):
        return False
    return all(f.is_simple_cycle for f in G.faces)
