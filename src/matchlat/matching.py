"""Perfect matching enumeration and alternating-cycle classification.

Enumeration is exact and certified.  The flip route counts the matchings
first, as |det K| for a Kasteleyn signing K of the host (Kasteleyn 1967;
Kuperberg, arXiv math/9810091), which refuses a host over the cap before
any search.  It then walks face flips from one matching, the first leaf
of the branch search, up to the top of its flip component and then
down, and keeps the result only when it reached exactly |det K|
matchings.  The route is sound because any signing gives |det K| <= #PM,
a flip walk finds perfect matchings only, and a signing that passes
every inner face's sign test gives equality.  On a weakly
elementary host the flip digraph is connected (the lattice's Hasse
diagram), so the walk is complete.  A host with an inner face that is
no simple cycle, or one whose walk stops short, goes to the branch route:
a deterministic branch-and-prune over vertices, complete and
duplicate-free, over an explicit stack, picking each branch vertex by the
popcount of its free-neighbour mask; its tree is that of a search which
rescans every vertex per node, and the walk restarts from each leaf not
yet reached.  It is also the test oracle of the flip route.  On both
routes the walk records each cover it crosses as an arc of the flip
digraph, and its order certifies the digraph acyclic.  On canonical
masks, edge e at bit ``n_edges - 1 - e``, the walk lists the matchings'
lower covers in canonical order, so the arc table needs no sort.  It
keeps the masks and the table as one ``ZDigraph``, and builds the
``Matching`` objects from the masks only when they are first read.

Alternating cycles are checked and split in one place,
``plane_graph._split_cycles``: it refuses an edge set that is not
2-regular and walks each cycle once with ``walk_cycle``, from its
smallest edge, giving its mask and canonical edge sequence.
The difference routes classify those walks as they are: Jordan parity
on the mask gives the interior and each edge's clockwise step.  A
difference of two enumerated matchings is 2-regular as it stands:
``all_alternating_cycles`` walks it straight from the walk's own masks,
``ZDigraph.masks``, with no second check.
``oracles.faces_inside_cycle_by_flood`` is the independent route to the
interiors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from typing import Iterable, Iterator, Optional, Sequence

from .derive import per_object
from .errors import CycleDetected, NotAMatching, SizeCapExceeded
from .plane_graph import (
    WHITE,
    PlaneBipartiteGraph,
    Step,
    _clockwise,
    _split_cycles,
    dual_tree,
    edge_ends,
    edge_mask,
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


def enumerate_perfect_matchings(G: PlaneBipartiteGraph) -> tuple[Matching, ...]:
    """Complete, canonically ordered tuple of perfect matchings of G.

    More than ``G.caps.max_matchings`` raise :class:`SizeCapExceeded`; on
    the flip route that is decided by the Kasteleyn count, before any
    search.  This is ``ZDigraph.matchings`` of :func:`_flip_walk`, which
    records the flip digraph's arcs on the same pass: one tuple per
    graph, built from the walk's masks on first read, and the same object
    as ``ztransform.build_z_digraph(G).matchings``.
    """
    return _flip_walk(G).matchings


def _edge_ids(ids: Sequence[int], mask: int, width: str) -> tuple[int, ...]:
    """The edges of a canonical mask, ascending, as the objects of ``ids``:
    its n_edges binary digits (the format spec ``width``), highest first,
    select from ids, with the zeros made falsy.

    The list makes the tuple its exact size.  A tuple built straight from
    the iterator is over-allocated and shrunk, which on many small hosts
    left the interpreter's small-object heap measurably larger.
    """
    return tuple(list(compress(ids, format(mask, width).encode().replace(b"0", b"\0"))))


@per_object
def flip_faces(G: PlaneBipartiteGraph) -> tuple[tuple[int, int, int], ...]:
    """(face id, boundary mask, white-tail mask) of each simple-cycle inner
    face, on canonical masks (edge e at bit ``n_edges - 1 - e``): ``white``
    holds the steps of its clockwise walk whose tail is white.  A matching
    m alternates around the face exactly when ``m & face`` is ``white`` or
    ``face ^ white``.  One loop over each face's steps reads both masks
    and the steps' tails; the walk is a simple cycle when its distinct
    tails, its steps and its distinct edges are as many.

    The faces come in the order that lists a matching's lower covers in
    canonical order: first those whose lowest edge has a black tail, so
    that a proper flip adds it, lowest first, then the rest, highest first.
    That holds because no two faces proper at one matching share an edge:
    a shared matched edge has a white tail in one face's walk only, and a
    shared unmatched edge forces a shared matched one.
    """
    colors, top = G.colors, G.n_edges - 1
    keyed = []
    for fid in G.inner_face_ids:
        steps = G.faces[fid].steps
        face = white = 0
        tails = set()
        for eid, tail, _ in steps:
            bit = 1 << top - eid
            face |= bit
            if colors[tail] == WHITE:
                white |= bit
            tails.add(tail)
        if len(tails) == len(steps) == face.bit_count():
            low = top + 1 - face.bit_length()  # the lowest edge
            loses = white.bit_length() == face.bit_length()  # its tail is white
            keyed.append(((loses, -low if loses else low), fid, face, white))
    return tuple(f[1:] for f in sorted(keyed))


@dataclass(frozen=True, eq=False)
class ZDigraph:
    """Acyclic flip digraph: nodes are matchings, arcs are labeled by faces.

    ``masks`` holds the matchings as canonical edge masks, edge e at bit
    ``n_edges - 1 - e``, in descending order, which is their canonical
    order.  ``arc_table`` holds the arcs as one flat tuple of ints, three
    per arc: upper end, lower end (indices into ``masks``) and inner face
    id, ``upper, lower, face, upper, ...``, sorted by (upper, lower,
    face).  Each is built on first use: ``matchings``, one
    :class:`Matching` per mask; ``arcs``, one ``(upper, lower, face)``
    tuple per arc; and ``face_of``, mapping each ``(upper, lower)`` pair
    to its face.  The JSON writer reads the masks and the table, the text
    writer the table, and the DOT writer the matchings and the table.
    Other readers AND and XOR against ``masks``; hot loops (``_climb``,
    ``_edge_ids``, ``walk_cycle``, ``cli._mask_rows``) spell the order inline.
    """

    masks: tuple[int, ...]
    n_edges: int
    arc_table: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.masks)

    @cached_property
    def matchings(self) -> tuple[Matching, ...]:
        ids = list(range(self.n_edges))  # one int object per edge id
        width = f"0{self.n_edges}b"
        return tuple(Matching(_edge_ids(ids, m, width)) for m in self.masks)

    @cached_property
    def arcs(self) -> tuple[tuple[int, int, int], ...]:
        it = iter(self.arc_table)
        return tuple(zip(it, it, it))

    @cached_property
    def face_of(self) -> dict[tuple[int, int], int]:
        t = self.arc_table
        return dict(zip(zip(t[0::3], t[1::3]), t[2::3]))


@per_object
def _flip_walk(G: PlaneBipartiteGraph) -> ZDigraph:
    """The flip digraph of G: its perfect matchings as canonical masks in
    canonical order, and its arc table, in (upper, lower) order and
    certified acyclic.  No :class:`Matching` is built until
    ``ZDigraph.matchings`` is read.

    The walk runs on canonical masks, edge e at bit ``n_edges - 1 - e``:
    the lowest edge in which two matchings differ is in the earlier one,
    so the canonical order is the masks' descending order.  The flip route
    walks (:func:`_climb`) from the branch search's first leaf and is
    complete when it reached |det K| matchings.  Otherwise the branch
    enumerator lists every matching, and the walk starts again from each
    leaf it has not reached.  Each start is checked by
    :func:`_matching_mask`; face flips keep a perfect matching perfect.
    The walk leaves each matching's arcs as one block, its lower ends in
    canonical order (see :func:`flip_faces`), so the table is the blocks
    joined in the canonical order of their upper ends, with no sort.
    """
    count = _capped_count(G)
    if count == 0:
        return ZDigraph((), G.n_edges, ())
    cap = G.caps.max_matchings
    faces = [(fid, face, white, face ^ white) for fid, face, white in flip_faces(G)]
    index: dict[int, int] = {}  # canonical matching mask -> walk index
    start: list[int] = []  # walk index -> its block's first position in lows
    lows: list[int] = []  # each arc's lower end, as a walk index
    fids: list[int] = []  # each arc's face id
    walk = (faces, index, start, lows, fids)
    if count is not None:
        leaf = next(_search_tree(G.n_vertices, G.edges), None)
        if leaf is None:
            raise AssertionError("no perfect matching, but a nonzero Kasteleyn count")
        _climb(_matching_mask(G, Matching(leaf)), *walk, count)
    if len(index) != count:
        leaves = _enumerate_on_edges(G.n_vertices, G.edges, cap)
        for leaf in leaves:
            m = _matching_mask(G, Matching(leaf))
            if m not in index:
                _climb(m, *walk, len(leaves))
    start.append(len(lows))
    masks = sorted(index, reverse=True)
    pos = list(range(len(masks)))  # one int object per canonical index
    rank = [0] * len(masks)  # walk index -> canonical index
    for p, m in zip(pos, masks):
        rank[index[m]] = p
    # each block holds its lower ends in canonical order, so joining the
    # blocks by upper end sorts the table; it is filled a column at a time
    lows = list(map(rank.__getitem__, lows))
    upper, lower, face = [], [], []
    for p, i in zip(pos, map(index.__getitem__, masks)):
        a, b = start[i], start[i + 1]
        upper += repeat(p, b - a)
        lower += lows[a:b]
        face += fids[a:b]
    table = [0] * (3 * len(lows))
    table[0::3] = upper
    table[1::3] = lower
    table[2::3] = face
    return ZDigraph(tuple(masks), G.n_edges, tuple(table))


def _capped_count(G: PlaneBipartiteGraph) -> Optional[int]:
    """G's perfect matchings counted before any search: 0 when the color
    classes differ in size, and otherwise :func:`kasteleyn_count`, None
    without a signing.  More vertices or counted matchings than G's caps
    allow raise :class:`SizeCapExceeded`."""
    G.caps.check_vertices(G.n_vertices)
    if sum(G.colors) * 2 != G.n_vertices:
        return 0
    count = kasteleyn_count(G)
    cap = G.caps.max_matchings
    if count is not None and count > cap:
        raise SizeCapExceeded(f"more than {cap} matchings")
    return count


def _climb(
    m: int, faces: list, index: dict[int, int], start: list, lows: list,
    fids: list, limit: int,
) -> None:
    """Walk the flip component of the canonical matching mask m, not yet in
    ``index``.

    Flipping a proper face moves down the order and an improper one up.
    The walk climbs from m while some face is improper, then descends from
    that top breadth first by proper flips, giving each new matching the
    next walk index.  Each cover is tested once, from its upper end: the
    upper end's block starts at ``start[i]``, and each of its arcs appends
    its lower end (a walk index) to ``lows`` and its face id to ``fids``,
    in the order of ``faces``.  Every lower end must come later in the
    walk than its upper end, so the walk order is a linear extension: the
    digraph is acyclic.  Each flip component of a plane bipartite host is
    a distributive lattice with one top (Propp, arXiv math/0209005), so
    the descent reaches all of it.  More than ``limit`` matchings is a bug
    and raises.
    """
    # each pass flips every face improper at the matching it has reached,
    # at least one step up, and a climb has fewer than limit steps
    for _ in range(limit):
        flips = 0
        for _, face, _, black in faces:
            if m & face == black:
                m ^= face
                flips += 1
        if not flips:
            break
    else:
        raise CycleDetected("flip digraph has a directed cycle (orientation bug)")
    first = index[m] = len(index)
    queue = [m]
    for i, m in enumerate(queue, first):
        start.append(len(lows))
        for fid, face, white, _ in faces:
            if m & face == white:
                down = m ^ face
                j = index.get(down)
                if j is None:
                    j = index[down] = len(index)
                    queue.append(down)
                elif j < i:
                    raise CycleDetected(
                        "flip digraph has a directed cycle (orientation bug)"
                    )
                lows.append(j)
                fids.append(fid)
        if len(index) > limit:
            raise AssertionError("face flips reached more matchings than were counted")


def _kasteleyn_signs(G: PlaneBipartiteGraph) -> Optional[int]:
    """The edges signed -1 in a Kasteleyn signing of G, as a canonical mask
    (edge e at bit ``n_edges - 1 - e``); None when an inner face is no
    simple cycle.

    A signing is Kasteleyn when each inner face of length 2l has sign
    product (-1)^(l+1), an odd count of -1 edges exactly when 4 divides the
    length.  Edges off the dual BFS tree stay +1; each face from the leaves
    to the root sets its parent tree edge, the one edge of it no later
    face touches, and every face is tested again.
    """
    faces = {fid: face for fid, face, _ in flip_faces(G)}
    if len(faces) != len(G.inner_face_ids):
        return None
    order, parent = dual_tree(G)
    top = G.n_edges - 1
    neg = 0
    for f in reversed(order[1:]):  # order[0] is the outer face
        if (neg & faces[f]).bit_count() % 2 != (faces[f].bit_count() % 4 == 0):
            neg ^= 1 << top - parent[f]
    for face in faces.values():
        if (neg & face).bit_count() % 2 != (face.bit_count() % 4 == 0):
            raise AssertionError("Kasteleyn signing fails a face it has set")
    return neg


@per_object
def kasteleyn_count(G: PlaneBipartiteGraph) -> Optional[int]:
    """The number of perfect matchings of G, as |det K| for the Kasteleyn
    matrix of :func:`_kasteleyn_signs`; None when that gives no signing.

    K has a row per white and a column per black vertex, with the edge's
    sign at each edge.  The columns are eliminated in the BFS order of the
    black vertices, so the fill stays near a band.
    """
    neg = _kasteleyn_signs(G)
    if neg is None:
        return None
    if sum(G.colors) * 2 != G.n_vertices:
        return 0
    rows: dict[int, dict[int, int]] = {
        v: {} for v, c in enumerate(G.colors) if c == WHITE
    }
    top = G.n_edges - 1
    for eid, (u, v) in enumerate(G.edges):
        w, b = (u, v) if G.colors[u] == WHITE else (v, u)
        rows[w][b] = -1 if neg >> top - eid & 1 else 1
    seen = [False] * G.n_vertices
    seen[0] = True
    queue = [0]
    for v in queue:
        for eid in G.incident_edges[v]:
            u = G.other_end(eid, v)
            if not seen[u]:
                seen[u] = True
                queue.append(u)
    return _abs_det(rows, [v for v in queue if G.colors[v] != WHITE])


def _abs_det(rows: dict[int, dict[int, int]], columns: Sequence[int]) -> int:
    """|det| of a square matrix given as sparse rows {column: nonzero entry},
    by fraction-free (Bareiss) elimination over the columns in order.

    Each step pivots on the row with the fewest entries among those that
    hold the column, and clears the column from the others: at step k, a
    row with a in the column has its entry x become
    (x p_k - a y) / p_(k-1), y the pivot row's entry there, so only the
    pivot row's columns can turn to zero.  Bareiss multiplies every row a
    step leaves alone by p_k / p_(k-1), p_k the step's pivot and
    p_(-1) = 1; those factors telescope, so such a row is
    rescaled once, by p_(k-1) / p_(s-1), when step k next touches it and
    s is the first step it missed.  Every entry stays an integer minor of
    the matrix, so each division is exact.  The rows are consumed.
    """
    pivots = [1]  # pivots[k] is p_(k-1)
    fresh = dict.fromkeys(rows, 0)  # row -> the first step it missed
    holding: dict[int, set[int]] = {c: set() for c in columns}
    for r, row in rows.items():
        for c in row:
            holding[c].add(r)
    for k, c in enumerate(columns):
        candidates = holding.pop(c)
        if not candidates:
            return 0
        prev = pivots[k]
        for r in candidates:
            s = fresh[r]
            if s != k:
                row = rows[r]
                scale, div = prev, pivots[s]
                for j in row:
                    row[j] = row[j] * scale // div
            fresh[r] = k + 1
        _, pr = min([(len(rows[r]), r) for r in candidates])
        candidates.discard(pr)
        prow = rows.pop(pr)
        p = prow.pop(c)
        for j in prow:
            holding[j].discard(pr)
        for r in candidates:
            row = rows[r]
            a = row.pop(c)
            for j, x in row.items():
                if j not in prow:
                    row[j] = x * p // prev
            for j, y in prow.items():
                x = row.get(j, 0) * p - a * y
                if x:
                    if j not in row:
                        holding[j].add(r)
                    row[j] = x // prev
                elif j in row:
                    del row[j]
                    holding[j].discard(r)
        pivots.append(p)
    return abs(pivots[-1])


@per_object
def matching_index(G: PlaneBipartiteGraph) -> dict[Matching, int]:
    return {M: i for i, M in enumerate(enumerate_perfect_matchings(G))}


def check_matching(G: PlaneBipartiteGraph, M: Matching) -> None:
    _matching_mask(G, M)


def _matching_mask(G: PlaneBipartiteGraph, M: Matching) -> int:
    """M's edges as a canonical mask; refuses M unless it is a perfect matching.

    OR-ing the edges' vertex masks refuses an unknown edge id, two edges
    sharing a vertex and an uncovered vertex.
    """
    ends = edge_ends(G)
    covered = 0
    for eid in M.edge_ids:
        if not 0 <= eid < len(ends):
            raise NotAMatching(f"unknown edge id {eid}")
        if covered & ends[eid]:
            raise NotAMatching(f"edges share vertex at edge {eid}")
        covered |= ends[eid]
    if covered != (1 << G.n_vertices) - 1:
        raise NotAMatching("not all vertices are covered")
    return edge_mask(len(ends), M.edge_ids)


def classify_alternating_faces(
    G: PlaneBipartiteGraph, M: Matching
) -> list[tuple[int, str]]:
    """Inner faces whose boundary is M-alternating, tagged proper/improper.

    An alternating face is proper when its matching edges run from white
    to black along the clockwise inner-face walk.  Faces whose boundary is
    not a simple cycle can never alternate and are skipped.  This is the
    per-matching reference route; the enumeration's walk makes the same
    test on edge masks, from each cover's upper end.
    """
    check_matching(G, M)
    return _alternating_faces(G, M.edge_set)


def _alternating_faces(
    G: PlaneBipartiteGraph, mset: frozenset[int]
) -> list[tuple[int, str]]:
    """:func:`classify_alternating_faces` of a matching known to be a
    perfect matching of G, given as its edge set."""
    out: list[tuple[int, str]] = []
    for fid in G.inner_face_ids:
        walk = G.faces[fid]
        if not walk.is_simple_cycle:
            continue
        pattern = [eid in mset for eid in walk.edge_ids]
        # alternating: matched and unmatched steps take turns all round
        first = pattern[0]
        if pattern != [first, not first] * (len(pattern) // 2):
            continue
        tails = walk.vertices[0 if first else 1 :: 2]  # of the matched steps
        colors = {G.colors[tail] for tail in tails}
        if len(colors) != 1:
            raise AssertionError("matched edges disagree on orientation class")
        out.append((fid, PROPER if colors.pop() == WHITE else IMPROPER))
    return out


def _classified(
    G: PlaneBipartiteGraph, mset: frozenset[int], mask: int, steps: list[Step]
) -> AlternatingCycleReport:
    """Classify one alternating cycle, already walked by
    ``plane_graph._split_cycles``, as proper or improper with respect to
    the matching with edge set mset.  Jordan parity gives the interior and
    each edge's clockwise step."""
    steps, inside = _clockwise(G, mask, steps)
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


def _difference_cycles(G: PlaneBipartiteGraph, M1: Matching, M2: Matching) -> list:
    """Decompose M1 xor M2 into disjoint cycles, classified with respect to
    M1, for two matchings known to be perfect matchings of G."""
    mset = M1.edge_set
    return [
        _classified(G, mset, mask, steps)
        for mask, steps in _split_cycles(G, mset ^ M2.edge_set)
    ]


def all_alternating_cycles(
    G: PlaneBipartiteGraph, M: Matching
) -> list[AlternatingCycleReport]:
    """Every M-alternating cycle of G.

    Flipping an alternating cycle of M yields another perfect matching,
    and conversely every single-cycle symmetric difference with M is an
    M-alternating cycle, so the cycles are exactly the single-cycle
    differences M xor M'.  M is checked; the other matchings are the
    certified enumeration's, so each difference is 2-regular as it
    stands, and only its cycle through its lowest edge is walked: the
    difference is one cycle exactly when that walk covers it.
    """
    m = _matching_mask(G, M)
    mset = M.edge_set
    reports: list[AlternatingCycleReport] = []
    for m2 in _flip_walk(G).masks:
        diff = m ^ m2
        if not diff:
            continue
        steps = walk_cycle(G, diff)
        if len(steps) == diff.bit_count():
            reports.append(_classified(G, mset, diff, steps))
    reports.sort(key=lambda r: r.cycle)
    return reports
