"""The per-host set-up read straight from the traced face walks, against
the routes it replaced: the dart tracer against a tracer keyed by
(vertex, edge) pairs, ``flip_faces`` against its definition from the
``FaceWalk`` properties, and ``dual_tree`` against the BFS over
``edge_faces``.  Each runs on every host of ``decomposition_hosts`` and
on each of them relabelled by a seeded permutation of its vertices and
edges, because the tracer's visiting order follows the edge ids, and on
a host with an inner face that repeats a vertex but no edge."""

import random

import pytest

from conftest import decomposition_hosts, relabelled
from matchlat.errors import EulerViolation
from matchlat.matching import flip_faces
from matchlat.plane_graph import (
    WHITE,
    _trace_rotation,
    build_graph,
    dual_tree,
    edge_mask,
)


def dict_trace(edges, rotation):
    """The face walks as a dict of rotation positions and a set of unused
    (edge, tail) pairs give them: from each unused pair in edge order,
    first end first, arrive at the head and leave along the edge before
    the arriving one in the head's rotation, until a used pair comes up."""
    pos = {(v, eid): i for v, rot in enumerate(rotation) for i, eid in enumerate(rot)}
    unused = {(eid, end) for eid, ends in enumerate(edges) for end in ends}
    walks = []
    for eid0, ends in enumerate(edges):
        for tail0 in ends:
            if (eid0, tail0) not in unused:
                continue
            steps = []
            eid, tail = eid0, tail0
            while (eid, tail) in unused:
                unused.remove((eid, tail))
                u, w = edges[eid]
                head = w if tail == u else u
                steps.append((eid, tail, head))
                rot = rotation[head]
                eid, tail = rot[pos[(head, eid)] - 1], head
            if (eid, tail) != (eid0, tail0):
                raise EulerViolation("face walk did not close on its start")
            walks.append(steps)
    return walks


def flip_faces_by_definition(G):
    """Each inner face whose walk ``is_simple_cycle``, with the masks of
    its ``edge_ids`` and of the steps whose tail is white: first the faces
    whose lowest edge has a black tail, by that edge ascending, then the
    others, by that edge descending."""
    gains, loses = [], []
    for fid in G.inner_face_ids:
        walk = G.faces[fid]
        if walk.is_simple_cycle:
            white = [eid for eid, tail, _ in walk.steps if G.colors[tail] == WHITE]
            low = min(walk.edge_ids)
            face = (low, fid, edge_mask(G.n_edges, walk.edge_ids),
                    edge_mask(G.n_edges, white))
            (loses if low in white else gains).append(face)
    ordered = sorted(gains) + sorted(loses, reverse=True)
    return tuple(face[1:] for face in ordered)


def dual_tree_by_edge_faces(G):
    """Breadth first from the outer face, crossing each face's edges in
    walk order to the other face ``edge_faces`` names."""
    parent = [None] * len(G.faces)
    parent[G.outer_face] = -1
    order = [G.outer_face]
    for f in order:
        for eid in G.faces[f].edge_ids:
            g = sum(G.edge_faces(eid)) - f
            if parent[g] is None:
                parent[g] = eid
                order.append(g)
    return tuple(order), tuple(parent)


def pinned_square():
    """A hexagon with a square hung inside it from vertex 0: the face
    between them repeats vertex 0 but no edge, so it is no simple cycle."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (6, 7),
             (7, 8), (8, 0)]
    rotation = [(0, 6, 9, 5), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7),
                (7, 8), (8, 9)]
    colors = (WHITE, 1, WHITE, 1, WHITE, 1, 1, WHITE, 1)
    outer = next(i for i, w in enumerate(dict_trace(edges, rotation)) if len(w) == 6)
    G = build_graph(colors, edges, rotation, outer)
    ring = next(f for f in G.faces if len(f) == 10)
    assert len(ring.vertex_set) == 9 and len(ring.edge_set) == 10
    return G


@pytest.fixture(scope="module")
def hosts():
    base = decomposition_hosts() + [pinned_square()]
    rng = random.Random(33)
    return base + [relabelled(G, rng) for G in base]


def test_walks_are_the_dict_tracers(hosts):
    for G in hosts:
        walks = _trace_rotation(G.edges, G.rotation)
        assert walks == dict_trace(G.edges, G.rotation)
        assert [list(face.steps) for face in G.faces] == walks


def test_a_walk_that_does_not_close_is_refused():
    # the star's centre lists edge 0 twice and edge 2 never, so the walk
    # out along edge 1 comes back into edge 0's used dart, not its own
    edges = [(0, 1), (0, 2), (0, 3)]
    rotation = [(0, 0, 1), (0,), (1,), (2,)]
    for trace in (dict_trace, _trace_rotation):
        with pytest.raises(EulerViolation, match="^face walk did not close on its start$"):
            trace(edges, rotation)


def test_flip_faces_are_their_definition(hosts):
    for G in hosts:
        assert flip_faces(G) == flip_faces_by_definition(G)


def test_dual_tree_is_the_bfs_over_edge_faces(hosts):
    for G in hosts:
        assert dual_tree(G) == dual_tree_by_edge_faces(G)
