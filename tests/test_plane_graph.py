import pytest

from matchlat import (
    OrientedTree,
    elementary_structure,
    enumerate_perfect_matchings,
    faces_inside_cycle,
    find_e_cuts,
    link_components,
    load_graph,
    oriented_dual,
    tree_to_outerplane,
    truncated_parallelogram,
)
from matchlat.caps import DEFAULT_CAPS, SizeCaps
from matchlat.derive import component_labels
from matchlat.errors import (
    Disconnected,
    DuplicateEdge,
    EulerViolation,
    ImproperColoring,
    InputRequired,
    NotACycle,
    NotBipartite,
    NotOuterplane,
    ParseError,
    SizeCapExceeded,
)
from matchlat.generators import TruncatedParallelogramSpec
from matchlat.oracles import minimal_cuts_with_white_bank
from matchlat.plane_graph import ECut, cycle_clockwise_steps
from matchlat.verify import (
    MAX_ORIENTATIONS,
    MAX_TREE_NODES,
    _TREES_UP_TO_6,
    _orientations,
    _outerplane_case,
)

from conftest import c6_description


class TestLoadGraph:
    def test_c6_two_faces(self, c6):
        assert c6.n_vertices == 6
        assert len(c6.faces) == 2
        assert c6.outer_face == 1
        assert c6.inner_face_ids == (0,)

    def test_k2_single_face(self):
        G = load_graph(
            {
                "vertices": [
                    {"id": 0, "color": "white"},
                    {"id": 1, "color": "black"},
                ],
                "edges": [[0, 1]],
                "rotation": {"0": [0], "1": [0]},
            }
        )
        assert len(G.faces) == 1
        assert G.faces[0].is_outer
        assert len(G.faces[0]) == 2

    def test_improper_coloring(self):
        desc = c6_description()
        # w,w,b,w,b,b around the cycle
        colors = ["white", "white", "black", "white", "black", "black"]
        desc["vertices"] = [
            {"id": v, "color": colors[v]} for v in range(6)
        ]
        with pytest.raises(ImproperColoring):
            load_graph(desc)

    def test_outer_face_tie_requires_input(self):
        with pytest.raises(InputRequired):
            load_graph(c6_description(outer_face=None))

    def test_duplicate_edge(self):
        desc = c6_description()
        desc["edges"] = desc["edges"] + [[1, 0]]
        with pytest.raises(DuplicateEdge):
            load_graph(desc)

    def test_disconnected(self):
        desc = {
            "vertices": [
                {"id": v, "color": "white" if v % 2 == 0 else "black"}
                for v in range(4)
            ],
            "edges": [[0, 1], [2, 3]],
            "rotation": {"0": [0], "1": [0], "2": [1], "3": [1]},
        }
        with pytest.raises(Disconnected):
            load_graph(desc)

    def test_odd_cycle_not_bipartite(self):
        desc = {
            "vertices": [
                {"id": 0, "color": "white"},
                {"id": 1, "color": "black"},
                {"id": 2, "color": "white"},
            ],
            "edges": [[0, 1], [1, 2], [0, 2]],
            "rotation": {"0": [0, 2], "1": [0, 1], "2": [1, 2]},
        }
        with pytest.raises(NotBipartite):
            load_graph(desc)

    def test_k33_rotation_violates_euler(self):
        desc = {
            "vertices": [
                {"id": v, "color": "white" if v < 3 else "black"}
                for v in range(6)
            ],
            "edges": [[u, v] for u in range(3) for v in range(3, 6)],
            "rotation": {
                str(v): sorted(
                    e
                    for e, (a, b) in enumerate(
                        [(u, w) for u in range(3) for w in range(3, 6)]
                    )
                    if v in (a, b)
                )
                for v in range(6)
            },
        }
        with pytest.raises(EulerViolation):
            load_graph(desc)

    def test_vertex_cap(self):
        with pytest.raises(SizeCapExceeded):
            load_graph(c6_description(), caps=SizeCaps(max_vertices=4))

    def test_bad_outer_face_id(self):
        with pytest.raises(ParseError):
            load_graph(c6_description(outer_face=7))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rotation", {**c6_description()["rotation"], "0": ["x"]}),
            ("rotation", [[0, 1, 2]]),
            ("outer_face", "a"),
            (
                "vertices",
                [{"id": 1.7 if v == 1 else v, "color": "white" if v % 2 == 0
                  else "black"} for v in range(6)],
            ),
        ],
        ids=["rotation-entry-not-int", "rotation-not-a-map", "outer-face-not-int",
             "float-vertex-id"],
    )
    def test_malformed_field_is_parse_error(self, field, value):
        desc = c6_description()
        desc[field] = value
        with pytest.raises(ParseError):
            load_graph(desc)

    def test_json_round_trip(self, c6):
        assert load_graph(c6.to_json()).to_json() == c6.to_json()


class TestTraceFaces:
    def test_every_edge_traversed_twice_opposite(self, c6, ladder, pyrene):
        for G in (c6, ladder, pyrene.graph):
            seen = {}
            for f in G.faces:
                for eid, tail, head in f.steps:
                    seen.setdefault(eid, []).append((tail, head))
            for eid, dirs in seen.items():
                assert len(dirs) == 2
                assert dirs[0] == (dirs[1][1], dirs[1][0])

    def test_ladder_faces(self, ladder):
        lengths = sorted(len(f) for f in ladder.faces)
        assert lengths == [4, 4, 6]
        assert len(ladder.faces[ladder.outer_face]) == 6

    def test_naphthalene_faces(self, naphthalene):
        G = naphthalene.graph
        assert G.n_vertices == 10
        lengths = sorted(len(f) for f in G.faces)
        assert lengths == [6, 6, 10]
        assert len(G.faces[G.outer_face]) == 10

    def test_euler_formula(self, ladder, pyrene, t2):
        for G in (ladder, pyrene.graph, t2.graph):
            assert G.n_vertices - G.n_edges + len(G.faces) == 2


class TestOrientedDual:
    def test_hexagon_dual_alternates(self, c6):
        D = oriented_dual(c6, include_outer=True)
        assert len(D.arcs) == 6
        inner = c6.inner_face_ids[0]
        out_arcs = [a for a in D.arcs if a.src == inner]
        in_arcs = [a for a in D.arcs if a.dst == inner]
        assert len(out_arcs) == 3 and len(in_arcs) == 3
        # directions alternate around the face walk
        walk_edges = c6.faces[inner].edge_ids
        direction = [
            any(a.src == inner and a.edge_id == e for a in D.arcs)
            for e in walk_edges
        ]
        assert all(direction[i] != direction[(i + 1) % 6] for i in range(6))

    def test_rule_total_and_deterministic(self, pyrene):
        D = oriented_dual(pyrene.graph, include_outer=True)
        assert len(D.arcs) == pyrene.graph.n_edges
        seen = {a.edge_id for a in D.arcs}
        assert seen == set(range(pyrene.graph.n_edges))

    def test_naphthalene_inner_dual_single_arc(self, naphthalene):
        D = oriented_dual(naphthalene.graph, include_outer=False)
        assert len(D.nodes) == 2
        assert len(D.arcs) == 1

    def test_two_quadrilaterals_arc_direction(self):
        from matchlat import OrientedTree, tree_to_outerplane

        real = tree_to_outerplane(OrientedTree((1, 2), ((1, 2),)))
        D = oriented_dual(real.graph, include_outer=False)
        assert len(D.arcs) == 1
        assert (D.arcs[0].src, D.arcs[0].dst) == (
            real.node_face[1],
            real.node_face[2],
        )


class TestFacesInsideCycle:
    def test_boundary_encloses_all(self, pyrene):
        G = pyrene.graph
        boundary = frozenset(
            eid for eid in range(G.n_edges) if G.outer_face in G.edge_faces(eid)
        )
        assert faces_inside_cycle(G, boundary) == frozenset(G.inner_face_ids)

    def test_single_face_boundary(self, pyrene):
        G = pyrene.graph
        f = G.inner_face_ids[0]
        assert faces_inside_cycle(G, G.faces[f].edge_set) == frozenset({f})

    def test_left_column_of_pyrene(self, pyrene):
        G = pyrene.graph
        col = [pyrene.hexagon_face[(1, 1)], pyrene.hexagon_face[(2, 1)]]
        cyc = frozenset(G.faces[col[0]].edge_set) ^ frozenset(
            G.faces[col[1]].edge_set
        )
        assert faces_inside_cycle(G, cyc) == frozenset(col)

    def test_not_a_cycle(self, c6):
        with pytest.raises(NotACycle):
            faces_inside_cycle(c6, [0, 2])

    def test_clockwise_steps_coherent(self, pyrene):
        G = pyrene.graph
        f = pyrene.hexagon_face[(1, 1)]
        steps = cycle_clockwise_steps(G, G.faces[f].edge_set)
        walk_dirs = {(t, h) for _, t, h in G.faces[f].steps}
        assert set(steps.values()) == walk_dirs


class TestElementaryStructure:
    def test_parallelograms_elementary(self):
        for rows in [(1,), (2, 1), (2, 2), (3, 2, 1)]:
            H = truncated_parallelogram(TruncatedParallelogramSpec(rows))
            es = elementary_structure(H.graph, check_weak=(sum(rows) <= 4))
            assert es.is_elementary
            assert not es.forbidden_edges
            assert len(es.elementary_components) == 1

    def test_linked_hexagons(self, hexagon_gen):
        linked = link_components([hexagon_gen.graph, hexagon_gen.graph])
        es = elementary_structure(linked.graph)
        assert es.forbidden_edges == frozenset(linked.new_edges)
        assert len(es.elementary_components) == 2
        assert not es.is_elementary
        assert es.is_weakly_elementary

    def test_k2_elementary(self):
        G = load_graph(
            {
                "vertices": [
                    {"id": 0, "color": "white"},
                    {"id": 1, "color": "black"},
                ],
                "edges": [[0, 1]],
                "rotation": {"0": [0], "1": [0]},
            }
        )
        es = elementary_structure(G)
        assert es.is_elementary
        assert es.elementary_components == ()

    def test_pendant_not_weakly_elementary(self, pendant):
        es = elementary_structure(pendant)
        assert not es.is_elementary
        assert not es.is_weakly_elementary
        assert 2 in es.forbidden_edges  # the edge into the pendant


def _suite_tree_graphs():
    """Every tree realization the outerplane verification suite builds."""
    for n in range(1, MAX_TREE_NODES + 1):
        for edges in _TREES_UP_TO_6[n]:
            for arcs in _orientations(edges, MAX_ORIENTATIONS):
                tree = OrientedTree(tuple(range(1, n + 1)), arcs)
                yield tree_to_outerplane(tree).graph


class TestECuts:
    def test_hexagon_nine_cuts(self, c6):
        cuts = find_e_cuts(c6)
        assert len(cuts) == 9
        matchings = enumerate_perfect_matchings(c6)
        for cut in cuts:
            assert len(cut.edges) == 2
            for M in matchings:
                assert len(cut.edges & M.edge_set) == 1
            # every cut edge touches a white vertex of the white bank
            for eid in cut.edges:
                assert c6.white_end(eid) in cut.white_bank

    def test_matches_definition_oracle(self, c6, ladder, naphthalene):
        for G in (c6, ladder, naphthalene.graph):
            got = {cut.edges for cut in find_e_cuts(G)}
            assert got == minimal_cuts_with_white_bank(G)

    def test_k2_refused_as_not_outerplane(self):
        G = load_graph(
            {
                "vertices": [
                    {"id": 0, "color": "white"},
                    {"id": 1, "color": "black"},
                ],
                "edges": [[0, 1]],
                "rotation": {"0": [0], "1": [0]},
            }
        )
        with pytest.raises(NotOuterplane):
            find_e_cuts(G)

    def test_banks_are_the_components_on_suite_trees(self):
        # the traversal the outer-walk route replaced, kept as its oracle
        for G in _suite_tree_graphs():
            for cut in find_e_cuts(G):
                comp = component_labels(
                    G.n_vertices,
                    (e for eid, e in enumerate(G.edges) if eid not in cut.edges),
                )
                assert max(comp) == 1
                banks = {
                    frozenset(v for v in range(G.n_vertices) if comp[v] == side)
                    for side in (0, 1)
                }
                assert banks == {cut.white_bank, cut.black_bank}
                assert {comp[G.white_end(eid)] for eid in cut.edges} == {
                    comp[min(cut.white_bank)]
                }

    def test_cut_sets_match_definition_on_small_suite_trees(self):
        small = [G for G in _suite_tree_graphs() if G.n_edges <= 13]
        assert len(small) == 15
        for G in small:
            got = {cut.edges for cut in find_e_cuts(G)}
            assert got == minimal_cuts_with_white_bank(G)

    def test_matching_hits_on_outerplane_members(self, t2, naphthalene):
        for G in (t2.graph, naphthalene.graph):
            matchings = enumerate_perfect_matchings(G)
            cuts = find_e_cuts(G)
            assert cuts
            for cut in cuts:
                for M in matchings:
                    assert len(cut.edges & M.edge_set) == 1

    def test_outerplane_check_reports_a_cut_hit_twice(self, monkeypatch, t2):
        G = t2.graph
        M = enumerate_perfect_matchings(G)[0]
        cut = ECut(frozenset(M.edge_ids[:2]), frozenset(), frozenset(), ())
        monkeypatch.setattr("matchlat.verify.find_e_cuts", lambda G: [cut])
        assert _outerplane_case(G, DEFAULT_CAPS) == (
            f"e-cut {sorted(cut.edges)} meets a matching 2 times"
        )

    def test_banks_partition(self, t2):
        for cut in find_e_cuts(t2.graph):
            assert cut.white_bank | cut.black_bank == frozenset(
                range(t2.graph.n_vertices)
            )
            assert not (cut.white_bank & cut.black_bank)
