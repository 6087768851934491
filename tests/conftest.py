import itertools
import random

import pytest
from hypothesis import settings

from matchlat import (
    OrientedTree,
    TruncatedParallelogramSpec,
    link_components,
    load_graph,
    parallelogram_spec,
    parse_spec,
    prolate_triangle_spec,
    tree_to_outerplane,
    truncated_parallelogram,
)
from matchlat.caps import DEFAULT_CAPS
from matchlat.errors import Disconnected
from matchlat.matching import (
    PROPER,
    _classified,
    classify_alternating_faces,
    enumerate_perfect_matchings,
    matching_index,
)
from matchlat.plane_graph import WHITE, _split_cycles, _trace_rotation, build_graph
from matchlat.verify import (
    MAX_ORIENTATIONS,
    MAX_TREE_NODES,
    _TREES_UP_TO_6,
    _all_profiles,
    _orientations,
    _small_fixtures,
)

# Derandomised: a failure under `pytest --hypothesis-profile=ci` replays
# with the same examples on any machine.
settings.register_profile("ci", derandomize=True)


def c6_description(outer_face=1):
    """Hand-built hexagon: vertices 0..5 clockwise, alternating colors.

    Face 0 is the walk 0->1->2->3->4->5; with outer_face=1 that walk is
    the clockwise inner face.
    """
    desc = {
        "vertices": [
            {"id": v, "color": "white" if v % 2 == 0 else "black"}
            for v in range(6)
        ],
        "edges": [[0, 1], [0, 5], [1, 2], [2, 3], [3, 4], [4, 5]],
        "rotation": {
            "0": [0, 1],
            "1": [0, 2],
            "2": [2, 3],
            "3": [3, 4],
            "4": [4, 5],
            "5": [5, 1],
        },
    }
    if outer_face is not None:
        desc["outer_face"] = outer_face
    return desc


def ladder_description():
    """Two squares sharing an edge, drawn on a 2x3 grid of vertices."""
    return {
        "vertices": [
            {"id": 0, "color": "white"},
            {"id": 1, "color": "black"},
            {"id": 2, "color": "white"},
            {"id": 3, "color": "black"},
            {"id": 4, "color": "white"},
            {"id": 5, "color": "black"},
        ],
        "edges": [[0, 1], [0, 3], [1, 2], [1, 4], [2, 5], [3, 4], [4, 5]],
        "rotation": {
            "0": [1, 0],
            "1": [0, 3, 2],
            "2": [2, 4],
            "3": [5, 1],
            "4": [5, 6, 3],
            "5": [6, 4],
        },
    }


def pendant_description():
    """Hexagon with a pendant path hanging inside: not weakly elementary.

    The single inner face is a 10-walk (not a simple cycle), so the two
    matchings cannot be connected by face flips.
    """
    return {
        "vertices": [
            {"id": 0, "color": "white"},
            {"id": 1, "color": "black"},
            {"id": 2, "color": "white"},
            {"id": 3, "color": "black"},
            {"id": 4, "color": "white"},
            {"id": 5, "color": "black"},
            {"id": 6, "color": "black"},
            {"id": 7, "color": "white"},
        ],
        "edges": [
            [0, 1], [0, 5], [0, 6], [1, 2], [2, 3], [3, 4], [4, 5], [6, 7]
        ],
        "rotation": {
            "0": [0, 2, 1],
            "1": [0, 3],
            "2": [3, 4],
            "3": [5, 4],
            "4": [6, 5],
            "5": [1, 6],
            "6": [2, 7],
            "7": [7],
        },
        "outer_face": 1,
    }


def no_matching_description():
    """A tree whose two white leaves hang off one black vertex: the color
    classes have one size, yet no perfect matching covers both leaves."""
    return {
        "vertices": [{"id": v, "color": "white" if v in (0, 2, 3) else "black"}
                     for v in range(6)],
        "edges": [[1, 2], [1, 3], [1, 0], [0, 4], [0, 5]],
        "rotation": {"0": [2, 3, 4], "1": [0, 1, 2], "2": [0], "3": [1],
                     "4": [3], "5": [4]},
    }


@pytest.fixture
def c6():
    return load_graph(c6_description())


@pytest.fixture
def ladder():
    return load_graph(ladder_description())


@pytest.fixture
def pendant():
    return load_graph(pendant_description())


@pytest.fixture
def hexagon_gen():
    return truncated_parallelogram(TruncatedParallelogramSpec((1,)))


@pytest.fixture
def naphthalene():
    # two stacked hexagons, the 2-rows-of-1 profile
    return truncated_parallelogram(parallelogram_spec(2, 1))


@pytest.fixture
def pyrene():
    return truncated_parallelogram(parallelogram_spec(2, 2))


@pytest.fixture
def t2():
    return truncated_parallelogram(prolate_triangle_spec(2))


def cycle_oracle_hosts():
    """Hosts on which the cycle routes are checked against the flood oracle:
    the verification suite's small fixtures (the linked one has a bridge and
    a face that is no simple cycle), every orientation of every tree with at
    most four nodes, and the pendant hexagon."""
    hosts = [G for _, G in _small_fixtures(DEFAULT_CAPS)]
    for n in range(1, 5):
        for edges in _TREES_UP_TO_6[n]:
            for arcs in _orientations(edges, 1 << len(edges)):
                tree = OrientedTree(tuple(range(1, n + 1)), arcs)
                hosts.append(tree_to_outerplane(tree).graph)
    hosts.append(load_graph(pendant_description()))
    return hosts


def cycle_report(G, M, cycle_edges):
    """One M-alternating cycle's report, as the difference routes make it:
    the one walk ``_split_cycles`` gives, classified by ``_classified``."""
    ((mask, steps),) = _split_cycles(G, cycle_edges)
    return _classified(G, M.edge_set, mask, steps)


def outerplane_suite_hosts():
    """Every tree realization the outerplane verification suite builds."""
    for n in range(1, MAX_TREE_NODES + 1):
        for edges in _TREES_UP_TO_6[n]:
            for arcs in _orientations(edges, MAX_ORIENTATIONS):
                tree = OrientedTree(tuple(range(1, n + 1)), arcs)
                yield tree_to_outerplane(tree).graph


def reference_arcs(G):
    """The per-matching route: flip each face classified proper, then sort."""
    index = matching_index(G)
    return tuple(sorted(
        (i, index[M.flip(G.faces[fid].edge_set)], fid)
        for i, M in enumerate(enumerate_perfect_matchings(G))
        for fid, cls in classify_alternating_faces(G, M)
        if cls == PROPER
    ))


def fence(k):
    """The zigzag fence tree on nodes 1..k; it has Fibonacci F(k+2) matchings."""
    if k == 1:
        return "tree:1"
    return "tree:" + ",".join(
        f"{i}>{i + 1}" if i % 2 else f"{i + 1}>{i}" for i in range(1, k)
    )


def without_edges(G, dropped):
    """G less some edges, its outer face the one that keeps a step of G's."""
    keep = [e for e in range(G.n_edges) if e not in dropped]
    new_id = {e: k for k, e in enumerate(keep)}
    edges = [G.edges[e] for e in keep]
    rotation = [[new_id[e] for e in rot if e in new_id] for rot in G.rotation]
    step = next(
        (new_id[e], t, h) for e, t, h in G.faces[G.outer_face].steps if e in new_id
    )
    outer = next(i for i, w in enumerate(_trace_rotation(edges, rotation)) if step in w)
    return build_graph(G.colors, edges, rotation, outer, G.caps)


def nested_squares():
    """A square inside a square, joined top to top and bottom to bottom.

    Both joining edges lie in no perfect matching, and each face between
    the squares has one, so no face flip turns the outer square: the four
    matchings fall into two flip components, though every face is a
    simple cycle.
    """
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
             (0, 4), (2, 6)]
    rotation = [(0, 8, 3), (0, 1), (2, 9, 1), (2, 3), (8, 4, 7), (4, 5),
                (9, 6, 5), (6, 7)]
    colors = (WHITE, 1, WHITE, 1, 1, WHITE, 1, WHITE)
    outer = next(
        i for i, w in enumerate(_trace_rotation(edges, rotation))
        if {t for _, t, _ in w} == {0, 1, 2, 3}
    )
    return build_graph(colors, edges, rotation, outer)


def edited_hosts():
    C6 = parse_spec("L(1)").graph
    return [
        parse_spec(spec).graph
        for spec in ("P(2,2)", "P(2,3)", "P(3,3)", "T(3)", "L(3,2,2)", "L(4,2,1)",
                     fence(8), "tree:1>2,1>3,1>4")
    ] + [
        link_components([C6, C6, C6]).graph,
        link_components([C6, load_graph(pendant_description()), C6]).graph,
        nested_squares(),
    ]


def relabelled(G, rng):
    """G with its vertex and edge ids permuted by rng: the same plane graph
    under other names, its outer face found again by one of its steps."""
    vmap = list(range(G.n_vertices))
    emap = list(range(G.n_edges))
    rng.shuffle(vmap)
    rng.shuffle(emap)
    colors = [0] * G.n_vertices
    edges = [None] * G.n_edges
    rotation = [None] * G.n_vertices
    for v, c in enumerate(G.colors):
        colors[vmap[v]] = c
        rotation[vmap[v]] = [emap[e] for e in G.rotation[v]]
    for e, (u, v) in enumerate(G.edges):
        edges[emap[e]] = (vmap[u], vmap[v])
    e, t, h = G.faces[G.outer_face].steps[0]
    step = (emap[e], vmap[t], vmap[h])
    outer = next(i for i, w in enumerate(_trace_rotation(edges, rotation)) if step in w)
    return build_graph(colors, edges, rotation, outer, G.caps)


def decomposition_hosts():
    """Hosts on which ``analyze decompose``'s routes are compared: the
    cycle-oracle and outerplane-suite hosts, the edited hosts, every row
    profile of at most 8 hexagons, 2- and 3-part linked products, every
    one-edge deletion of the edited hosts and the linked products that
    stays connected, the linked products relabelled by seeded
    permutations, and a host with no perfect matching."""
    hosts = cycle_oracle_hosts() + list(outerplane_suite_hosts()) + edited_hosts()
    hosts += [truncated_parallelogram(TruncatedParallelogramSpec(rows)).graph
              for rows in _all_profiles(8)]
    parts = [parse_spec(spec).graph
             for spec in ("L(1)", "P(2,1)", "P(2,2)", "T(2)", "tree:1>2,3>2")]
    linked = [link_components([a, b]).graph
              for a, b in itertools.product(parts, repeat=2)]
    linked += [link_components(list(trio)).graph
               for trio in itertools.combinations_with_replacement(parts[:4], 3)]
    hosts += linked
    for G in edited_hosts() + linked[:8]:
        for e in range(G.n_edges):
            try:
                hosts.append(without_edges(G, {e}))
            except (Disconnected, StopIteration):
                pass
    rng = random.Random(31)
    hosts += [relabelled(G, rng) for G in linked for _ in range(2)]
    return hosts + [load_graph(no_matching_description())]
