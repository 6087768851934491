"""Plane bipartite graphs given by an explicit combinatorial embedding.

A graph is described purely combinatorially: vertices carry a white/black
color and every vertex lists its incident edges in clockwise order as
drawn.  Faces are derived by walking the rotation system so that every
inner face comes out clockwise; "an edge goes from its white end to its
black end along a face" is then meaningful without coordinates.

The same convention drives the oriented dual: the dual arc for a shared
edge points out of the face whose clockwise walk traverses the edge from
its black end to its white end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .caps import DEFAULT_CAPS, SizeCaps
from .derive import component_labels
from .errors import (
    Disconnected,
    DuplicateEdge,
    EulerViolation,
    ImproperColoring,
    InputRequired,
    NoPerfectMatching,
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

    def color(self, v: int) -> int:
        return self.colors[v]

    def white_end(self, edge_id: int) -> int:
        u, w = self.edges[edge_id]
        return u if self.colors[u] == WHITE else w

    def black_end(self, edge_id: int) -> int:
        u, w = self.edges[edge_id]
        return u if self.colors[u] == BLACK else w

    @cached_property
    def inner_face_ids(self) -> tuple[int, ...]:
        return tuple(f.face_id for f in self.faces if not f.is_outer)

    def face(self, face_id: int) -> FaceWalk:
        return self.faces[face_id]

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

    def is_bridge(self, edge_id: int) -> bool:
        f1, f2 = self.edge_faces(edge_id)
        return f1 == f2

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
    """
    pos: dict[tuple[int, int], int] = {}
    for v, rot in enumerate(rotation):
        for i, eid in enumerate(rot):
            pos[(v, eid)] = i

    def other(eid: int, v: int) -> int:
        u, w = edges[eid]
        return w if v == u else u

    unused: set[tuple[int, int]] = set()
    for eid, (u, v) in enumerate(edges):
        unused.add((eid, u))
        unused.add((eid, v))

    walks: list[list[Step]] = []
    for eid0 in range(len(edges)):
        for tail0 in edges[eid0]:
            if (eid0, tail0) not in unused:
                continue
            steps: list[Step] = []
            eid, tail = eid0, tail0
            while (eid, tail) in unused:
                unused.remove((eid, tail))
                head = other(eid, tail)
                steps.append((eid, tail, head))
                idx = pos[(head, eid)]
                rot = rotation[head]
                eid, tail = rot[(idx - 1) % len(rot)], head
            if (eid, tail) != (eid0, tail0):
                raise EulerViolation("face walk did not close on its start")
            walks.append(steps)
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
            vid, color = _int(item["id"], "vertex id"), item["color"]
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
        edges.append((_int(u, "edge end"), _int(v, "edge end")))

    rotation: list[tuple[int, ...]] = []
    for v in range(n):
        raw = rotation_map.get(str(v), rotation_map.get(v))
        if raw is None:
            raise ParseError(f"rotation missing for vertex {v}")
        try:
            rotation.append(tuple(_int(e, f"rotation entry at vertex {v}") for e in raw))
        except TypeError as exc:
            raise ParseError(f"rotation at vertex {v} is not a list") from exc

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
        key = (min(u, v), max(u, v))
        if key in seen_pairs:
            raise DuplicateEdge(f"edge {key} listed twice")
        seen_pairs.add(key)
        pairs.append(key)
    if not pairs:
        raise ParseError("graph must have at least one edge")

    _check_bipartite(n, pairs)
    for u, v in pairs:
        if colors[u] == colors[v]:
            raise ImproperColoring(
                f"edge ({u},{v}) joins two {COLOR_NAMES[colors[u]]} vertices"
            )
    unreachable = sum(1 for label in component_labels(n, pairs) if label)
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
    try:
        description = json.loads(text)
    except json.JSONDecodeError as exc:
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
    includes_outer: bool

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
        return DualDigraph(nodes=nodes, arcs=tuple(arcs), includes_outer=True)
    nodes = G.inner_face_ids
    keep = set(nodes)
    arcs = [a for a in arcs if a.src in keep and a.dst in keep]
    return DualDigraph(nodes=nodes, arcs=tuple(arcs), includes_outer=False)


# --- cycles and interiors ---------------------------------------------------


def check_cycle(G: PlaneBipartiteGraph, cycle_edges: Iterable[int]) -> frozenset[int]:
    """Verify an edge set forms one simple cycle; return it as a frozenset."""
    cyc = frozenset(cycle_edges)
    if not cyc:
        raise NotACycle("empty edge set")
    deg: dict[int, int] = {}
    for eid in cyc:
        u, v = G.edges[eid]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if any(d != 2 for d in deg.values()):
        raise NotACycle("edge set is not 2-regular")
    labels = component_labels(G.n_vertices, (G.edges[eid] for eid in cyc))
    if len({labels[v] for v in deg}) != 1:
        raise NotACycle("edge set is a union of several cycles")
    return cyc


def faces_inside_cycle(
    G: PlaneBipartiteGraph, cycle_edges: Iterable[int]
) -> frozenset[int]:
    """Inner faces on the interior side of a cycle.

    Deletes the dual edges crossing the cycle and returns the dual
    component not containing the outer face.
    """
    cyc = check_cycle(G, cycle_edges)
    labels = component_labels(
        len(G.faces),
        (G.edge_faces(eid) for eid in range(G.n_edges) if eid not in cyc),
    )
    outside = labels[G.outer_face]
    return frozenset(f for f, label in enumerate(labels) if label != outside)


def cycle_clockwise_steps(
    G: PlaneBipartiteGraph, cycle_edges: Iterable[int]
) -> dict[int, tuple[int, int]]:
    """Clockwise traversal direction (tail, head) for each edge of a cycle.

    The clockwise orientation of a cycle is the orientation its interior
    faces use: every cycle edge is traversed by exactly one face inside
    the cycle, and those traversals are coherent.
    """
    cyc = frozenset(cycle_edges)
    return _clockwise_steps(G, cyc, faces_inside_cycle(G, cyc))


def _clockwise_steps(
    G: PlaneBipartiteGraph, cyc: frozenset[int], inside: frozenset[int]
) -> dict[int, tuple[int, int]]:
    """Clockwise steps of a checked cycle whose interior faces are given."""
    steps: dict[int, tuple[int, int]] = {}
    for eid in cyc:
        trav = [t for t in G.edge_traversals[eid] if t[0] in inside]
        if len(trav) != 1:
            raise NotACycle(f"edge {eid} does not separate inside from outside")
        _, tail, head = trav[0]
        steps[eid] = (tail, head)
    # coherence: each cycle vertex appears once as tail and once as head
    tails = [t for t, _ in steps.values()]
    heads = [h for _, h in steps.values()]
    if sorted(tails) != sorted(heads) or len(set(tails)) != len(tails):
        raise NotACycle("interior traversals are not a coherent orientation")
    return steps


# --- elementary structure ---------------------------------------------------


@dataclass(frozen=True)
class ElementaryStructure:
    forbidden_edges: frozenset[int]
    elementary_components: tuple[tuple[int, ...], ...]
    is_elementary: bool
    is_weakly_elementary: bool


def elementary_structure(
    G: PlaneBipartiteGraph, check_weak: bool = True
) -> ElementaryStructure:
    """Classify forbidden edges and elementary components by enumeration.

    The weak-elementarity check enumerates, for every perfect matching M
    and every M-alternating cycle, whether the cycle together with its
    interior induces an elementary subgraph.  It is an exhaustive oracle
    gated by the size caps, not a scalable algorithm.
    """
    from .matching import _cycles_of_edge_set, enumerate_perfect_matchings

    matchings = enumerate_perfect_matchings(G)
    if not matchings:
        raise NoPerfectMatching("graph has no perfect matching")

    allowed: set[int] = set()
    for M in matchings:
        allowed.update(M.edge_ids)
    forbidden = frozenset(range(G.n_edges)) - frozenset(allowed)

    # components of G minus forbidden edges
    members: dict[int, list[int]] = {}
    for v, label in enumerate(
        component_labels(G.n_vertices, (G.edges[eid] for eid in allowed))
    ):
        members.setdefault(label, []).append(v)
    elementary_components = tuple(tuple(c) for c in members.values() if len(c) > 2)

    is_elementary = not forbidden

    is_weak = True
    if check_weak:
        seen_cycles: set[frozenset[int]] = set()
        for i in range(len(matchings)):
            for j in range(i + 1, len(matchings)):
                diff = frozenset(matchings[i].edge_ids) ^ frozenset(
                    matchings[j].edge_ids
                )
                for cyc in _cycles_of_edge_set(G, diff):
                    if cyc in seen_cycles:
                        continue
                    seen_cycles.add(cyc)
                    if not _cycle_plus_interior_elementary(G, cyc):
                        is_weak = False
        if is_elementary and not is_weak:
            raise AssertionError(
                "elementary graph classified as not weakly elementary (bug)"
            )

    return ElementaryStructure(
        forbidden_edges=forbidden,
        elementary_components=elementary_components,
        is_elementary=is_elementary,
        is_weakly_elementary=is_weak,
    )


def interior_edges_of_cycle(
    G: PlaneBipartiteGraph, cycle_edges: frozenset[int]
) -> frozenset[int]:
    """Edges strictly inside a cycle: all their incident faces lie inside."""
    inside = faces_inside_cycle(G, cycle_edges)
    out: set[int] = set()
    for eid in range(G.n_edges):
        if eid in cycle_edges:
            continue
        f1, f2 = G.edge_faces(eid)
        if f1 in inside and f2 in inside:
            out.add(eid)
    return frozenset(out)


def _cycle_plus_interior_elementary(
    G: PlaneBipartiteGraph, cycle_edges: frozenset[int]
) -> bool:
    from .matching import _enumerate_on_edges

    sub_edges = sorted(cycle_edges | interior_edges_of_cycle(G, cycle_edges))
    verts = sorted({v for eid in sub_edges for v in G.edges[eid]})
    index = {v: i for i, v in enumerate(verts)}
    pairs = [(index[G.edges[eid][0]], index[G.edges[eid][1]]) for eid in sub_edges]
    sub_matchings = _enumerate_on_edges(len(verts), pairs, G.caps.max_matchings)
    if not sub_matchings:
        return False
    used: set[int] = set()
    for m in sub_matchings:
        used.update(m)
    return len(used) == len(pairs)


# --- e-cuts -----------------------------------------------------------------


@dataclass(frozen=True)
class ECut:
    """Minimal edge cut whose edges all touch white vertices of one bank."""

    edges: frozenset[int]
    white_bank: frozenset[int]
    black_bank: frozenset[int]
    dual_cycle: tuple[int, ...]  # face sequence, starting at the outer face


def find_e_cuts(G: PlaneBipartiteGraph) -> list[ECut]:
    """Enumerate the e-cuts of a 2-connected outerplane host.

    Walks every simple directed cycle of the full oriented dual through
    the outer-face node (length >= 2) and maps each to its primal minimal
    edge cut.  On a 2-connected outerplane host every dual cycle passes
    through the outer face, so the list is complete, and every vertex
    lies on the outer walk.  The cycle crosses exactly two outer edges,
    its first and its last; the two runs of the outer walk between them
    stay connected once the cut is removed, so they are the banks, read
    off in O(V) per cut with no traversal.  Any other host raises
    :class:`NotOuterplane`: there the cuts whose dual cycle avoids the
    outer face would be missing.
    """
    if not is_outerplane_2connected(G):
        raise NotOuterplane("e-cuts need a 2-connected outerplane host")
    dual = oriented_dual(G, include_outer=True)
    f0 = G.outer_face
    at = {eid: k for k, eid in enumerate(G.faces[f0].edge_ids)}
    cuts: list[ECut] = []

    arcs_from: dict[int, list[DualArc]] = {f: [] for f in dual.nodes}
    for a in sorted(dual.arcs, key=lambda a: (a.dst, a.edge_id)):
        arcs_from[a.src].append(a)

    path_faces: list[int] = [f0]
    path_edges: list[int] = []
    on_path = {f0}

    def extend() -> None:
        here = path_faces[-1]
        for arc in arcs_from[here]:
            if arc.dst == f0:  # no self-loop: a 2-connected host has no bridge
                cuts.append(
                    _build_e_cut(G, at, path_faces[:], path_edges + [arc.edge_id])
                )
                continue
            if arc.dst in on_path:
                continue
            path_faces.append(arc.dst)
            path_edges.append(arc.edge_id)
            on_path.add(arc.dst)
            extend()
            on_path.remove(arc.dst)
            path_edges.pop()
            path_faces.pop()

    extend()
    cuts.sort(key=lambda c: sorted(c.edges))
    return cuts


def _build_e_cut(
    G: PlaneBipartiteGraph, at: dict[int, int], faces: list[int], edge_ids: list[int]
) -> ECut:
    """The cut of one dual cycle, with banks read off the outer walk.

    ``at`` maps each outer edge to its step index on the outer walk.  The
    first and last cut edges are the outer ones; the vertices strictly
    after the one and up to the other form one bank, the rest the other.
    """
    i, j = sorted((at[edge_ids[0]], at[edge_ids[-1]]))
    walk = G.faces[G.outer_face].vertices
    run = frozenset(walk[i + 1 : j + 1])
    rest = frozenset(walk[j + 1 :] + walk[: i + 1])
    T = frozenset(edge_ids)
    white_in_run = {G.white_end(eid) in run for eid in T}
    if len(white_in_run) != 1:
        raise AssertionError("cut edges touch white vertices of both banks (bug)")
    white_bank, black_bank = (run, rest) if white_in_run.pop() else (rest, run)
    return ECut(
        edges=T,
        white_bank=white_bank,
        black_bank=black_bank,
        dual_cycle=tuple(faces),
    )


def is_outerplane_2connected(G: PlaneBipartiteGraph) -> bool:
    """All vertices on the outer face and every face walk a simple cycle."""
    outer = G.faces[G.outer_face]
    if outer.vertex_set != frozenset(range(G.n_vertices)):
        return False
    return all(f.is_simple_cycle for f in G.faces)
