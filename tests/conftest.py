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
from matchlat.matching import (
    PROPER,
    classify_alternating_faces,
    enumerate_perfect_matchings,
    matching_index,
)
from matchlat.plane_graph import WHITE, _trace_rotation, build_graph
from matchlat.verify import (
    MAX_ORIENTATIONS,
    MAX_TREE_NODES,
    _TREES_UP_TO_6,
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
