import itertools

import pytest

from matchlat import (
    OrientedTree,
    enumerate_perfect_matchings,
    find_e_cuts,
    link_components,
    load_graph,
    matching_lattice,
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
    NotALattice,
    NotBipartite,
    NotOuterplane,
    ParseError,
    SizeCapExceeded,
)
from matchlat.generators import TruncatedParallelogramSpec
from matchlat.matching import (
    Matching,
    _enumerate_on_edges,
    _flip_walk,
    _matching_mask,
    _search_tree,
)
from matchlat.oracles import (
    _cycle_plus_interior_elementary,
    e_cuts_by_definition,
    elementary_structure,
    faces_inside_cycle_by_flood,
)
from matchlat.plane_graph import (
    _clockwise,
    _e_cut_mask,
    _faces_inside,
    _split_cycles,
    dual_tree,
    dual_tree_paths,
    edge_mask,
    elementary_components,
    incident_edge_masks,
    is_elementary,
    is_outerplane_2connected,
    mask_edge_ids,
)
from matchlat.verify import _outerplane_case, _small_fixtures

from conftest import (
    c6_description,
    cycle_oracle_hosts,
    decomposition_hosts,
    edited_hosts,
    outerplane_suite_hosts,
    without_edges,
)


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

    @pytest.mark.parametrize(
        "edges, rotation, colors, error, message",
        [
            # a triangle with the odd cycle's improper edge, and a black-black
            # edge apart from it
            ([[0, 1], [1, 2], [0, 2], [3, 4]],
             {"0": [0, 2], "1": [0, 1], "2": [1, 2], "3": [3], "4": [3]},
             "wbwbb", NotBipartite, "graph contains an odd cycle"),
            ([[0, 1], [1, 2], [2, 3], [3, 0], [4, 5]],
             {"0": [0, 3], "1": [0, 1], "2": [1, 2], "3": [2, 3], "4": [4], "5": [4]},
             "wbwwwb", ImproperColoring, "edge (2,3) joins two white vertices"),
            ([[0, 1], [2, 3]], {"0": [1], "1": [0], "2": [1], "3": [1]},
             "wbwb", Disconnected, "graph has 2 unreachable vertices"),
            ([[0, 1], [1, 2], [2, 3]], {"0": [0], "1": [0, "1"], "2": [1, 2]},
             "wbwb", ParseError, "rotation entry at vertex 1 must be an integer, got '1'"),
            ([[0, 1]], {"0": [True], "1": [0]},
             "wb", ParseError, "rotation entry at vertex 0 must be an integer, got True"),
            ([[0, 1]], {"0": [0.0], "1": 5},
             "wb", ParseError, "rotation entry at vertex 0 must be an integer, got 0.0"),
            ([[0, 1]], {"0": "0", "1": [0]},
             "wb", ParseError, "rotation entry at vertex 0 must be an integer, got '0'"),
            ([[0, 1.0], [1, 2, 3]], {"0": [0], "1": [0, 1], "2": [1]},
             "wbw", ParseError, "edge end must be an integer, got 1.0"),
            ([[0, False]], {"0": [0], "1": [0]},
             "wb", ParseError, "edge end must be an integer, got False"),
            ([[0, 1], [1, 2], [2, 3], [3, 0]],
             {"0": [0, 3], "1": [0, 0], "2": [1, 2], "3": [2, 3]}, "wbwb", ParseError,
             "rotation at vertex 1 is not a permutation of its incident edges"),
        ],
        ids=["odd-cycle", "coloring", "connectivity", "entry-before-missing",
             "bool-entry", "entry-before-not-a-list", "string-rotation",
             "end-before-malformed-edge", "second-end", "not-a-permutation"],
    )
    def test_the_first_fault_wins(self, edges, rotation, colors, error, message):
        vertices = [{"id": v, "color": "white" if c == "w" else "black"}
                    for v, c in enumerate(colors)]
        desc = {"vertices": vertices, "edges": edges, "rotation": rotation}
        with pytest.raises(error) as info:
            load_graph(desc)
        assert type(info.value) is error and str(info.value) == message

    def test_vertex_id_is_checked_before_its_color(self):
        desc = c6_description()
        desc["vertices"][0] = {"id": "0"}
        with pytest.raises(ParseError, match="^vertex id must be an integer, got '0'$"):
            load_graph(desc)

    def test_int_subclass_ids_load_as_ints(self, c6):
        class Id(int):
            pass

        desc = c6_description()
        desc["vertices"] = [{**item, "id": Id(item["id"])} for item in desc["vertices"]]
        desc["edges"] = [[Id(u), Id(v)] for u, v in desc["edges"]]
        desc["rotation"] = {k: [Id(e) for e in rot] for k, rot in desc["rotation"].items()}
        assert load_graph(desc).to_json() == c6.to_json()

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


def inside(G, edge_ids):
    """The faces inside a cycle given by its edge ids, by Jordan parity."""
    return _faces_inside(G, edge_mask(G.n_edges, edge_ids))


class TestFacesInsideCycle:
    def test_boundary_encloses_all(self, pyrene):
        G = pyrene.graph
        boundary = frozenset(
            eid for eid in range(G.n_edges) if G.outer_face in G.edge_faces(eid)
        )
        assert inside(G, boundary) == frozenset(G.inner_face_ids)

    def test_single_face_boundary(self, pyrene):
        G = pyrene.graph
        f = G.inner_face_ids[0]
        assert inside(G, G.faces[f].edge_set) == frozenset({f})

    def test_left_column_of_pyrene(self, pyrene):
        G = pyrene.graph
        col = [pyrene.hexagon_face[(1, 1)], pyrene.hexagon_face[(2, 1)]]
        cyc = frozenset(G.faces[col[0]].edge_set) ^ frozenset(
            G.faces[col[1]].edge_set
        )
        assert inside(G, cyc) == frozenset(col)

    def test_not_a_cycle(self, c6):
        with pytest.raises(NotACycle, match="edge set is not 2-regular"):
            _split_cycles(c6, [0, 2])

    @pytest.mark.parametrize("bad", ["negative", "too large"])
    def test_unknown_edge_id(self, hexagon_gen, bad):
        """-1 would alias the last edge, n_edges would index past the list."""
        G = hexagon_gen.graph
        hexagon = list(G.faces[G.inner_face_ids[0]].edge_ids)
        eid = -1 if bad == "negative" else G.n_edges
        hexagon[2] = eid
        with pytest.raises(NotACycle, match=f"unknown edge id {eid}$"):
            _split_cycles(G, hexagon)

    def test_face_boundaries_match_flood(self):
        checked = 0
        for G in cycle_oracle_hosts():
            inner = frozenset(G.inner_face_ids)
            for walk in G.faces:
                if not walk.is_simple_cycle:
                    continue
                got = inside(G, walk.edge_set)
                assert got == faces_inside_cycle_by_flood(G, walk.edge_set)
                assert got == (inner if walk.is_outer else {walk.face_id})
                checked += walk.is_outer
        assert checked > 0

    def test_bridge_and_non_simple_face(self, pendant):
        outer = pendant.faces[pendant.outer_face]
        (inner,) = pendant.inner_face_ids
        assert not pendant.faces[inner].is_simple_cycle
        # a bridge has the same face on both sides
        faces = [pendant.edge_faces(eid) for eid in range(pendant.n_edges)]
        assert any(f1 == f2 for f1, f2 in faces)
        assert inside(pendant, outer.edge_set) == {inner}
        assert faces_inside_cycle_by_flood(pendant, outer.edge_set) == {inner}

    def test_clockwise_steps_coherent(self, pyrene):
        G = pyrene.graph
        f = pyrene.hexagon_face[(1, 1)]
        ((mask, walk),) = _split_cycles(G, G.faces[f].edge_set)
        steps, faces = _clockwise(G, mask, walk)
        assert sorted(steps) == sorted(G.faces[f].steps)
        assert faces == {f}


class TestElementaryStructure:
    def test_parallelograms_elementary(self):
        for rows in [(1,), (2, 1), (2, 2), (3, 2, 1)]:
            H = truncated_parallelogram(TruncatedParallelogramSpec(rows))
            es = elementary_structure(H.graph, check_weak=(sum(rows) <= 4))
            assert es.is_elementary
            assert not es.forbidden_edges
            assert len(es.elementary_components) == 1

    def test_strong_components_are_the_elementary_components(self):
        """From the branch search's first leaf, the strong components are
        the enumeration's elementary components, on every host that has a
        perfect matching."""
        checked = 0
        for G in decomposition_hosts():
            leaf = next(_search_tree(G.n_vertices, G.edges), None)
            if leaf is None:
                continue
            es = elementary_structure(G, check_weak=False)
            assert elementary_components(G, leaf) == es.elementary_components
            checked += 1
        assert checked > 900

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
        # one edge is elementary, though no arc of it lies on a cycle
        assert is_elementary(G, [0])
        assert elementary_components(G, [0]) == es.elementary_components == ()
        assert es.elementary_components == ()

    def test_pendant_not_weakly_elementary(self, pendant):
        es = elementary_structure(pendant)
        assert not es.is_elementary
        assert not es.is_weakly_elementary
        assert 2 in es.forbidden_edges  # the edge into the pendant

    def test_weakly_elementary_exactly_when_the_flips_give_a_lattice(self):
        """The oracle's weak elementarity is the condition under which the
        production route certifies M(G) as a lattice (Zhang & Zhang, Discrete
        Appl. Math. 105, 2000): on every cycle-oracle host, every edited
        host and every connected one-edge deletion of an edited host."""
        hosts = cycle_oracle_hosts()
        for G in edited_hosts():
            hosts.append(G)
            for e in range(G.n_edges):
                try:
                    hosts.append(without_edges(G, {e}))
                except Disconnected:
                    pass
        verdicts = []
        for G in hosts:
            try:
                matching_lattice(G)
                lattice = True
            except NotALattice:
                lattice = False
            assert elementary_structure(G).is_weakly_elementary == lattice, G.edges
            verdicts.append(lattice)
        assert (len(verdicts), verdicts.count(False)) == (309, 21)

    def test_cycle_plus_interior_is_the_enumeration_definition(self):
        """One search leaf and a reachability test decide what enumerating
        every perfect matching of the cycle plus its interior decides: that
        some matching exists and together they use every edge."""

        def by_enumeration(G, mask):
            cycle = mask_edge_ids(G.n_edges, mask)
            inside = faces_inside_cycle_by_flood(G, cycle)
            sub = [
                G.edges[e] for e in range(G.n_edges)
                if e in cycle or set(G.edge_faces(e)) <= inside
            ]
            index = {v: i for i, v in enumerate(sorted({v for p in sub for v in p}))}
            pairs = [(index[u], index[v]) for u, v in sub]
            ms = _enumerate_on_edges(len(index), pairs, 10**9)
            return bool(ms) and len(set().union(*ms)) == len(pairs)

        hosts = []
        for G in edited_hosts():
            hosts.append(G)
            for e in range(G.n_edges):
                try:
                    hosts.append(without_edges(G, {e}))
                except (Disconnected, StopIteration):
                    pass
        verdicts = []
        for G in hosts:
            ms = [M.edge_set for M in enumerate_perfect_matchings(G)]
            masks = {
                mask
                for a, b in itertools.combinations(ms, 2)
                for mask, _ in _split_cycles(G, a ^ b)
            }
            for mask in sorted(masks):
                got = _cycle_plus_interior_elementary(G, mask)
                assert got == by_enumeration(G, mask), (G.edges, mask)
                verdicts.append(got)
        assert True in verdicts and False in verdicts


class TestECuts:
    def test_hexagon_nine_cuts(self, c6):
        cuts = find_e_cuts(c6)
        assert len(cuts) == 9
        matchings = enumerate_perfect_matchings(c6)
        for cut in cuts:
            assert cut.bit_count() == 2
            for M in matchings:
                assert len(set(mask_edge_ids(c6.n_edges, cut)) & M.edge_set) == 1

    def test_masks_descend(self, c6, ladder, t2):
        for G in (c6, ladder, t2.graph):
            cuts = find_e_cuts(G)
            assert all(type(cut) is int for cut in cuts)
            assert cuts == sorted(set(cuts), reverse=True)

    def test_matches_definition_oracle(self, c6, ladder, naphthalene):
        for G in (c6, ladder, naphthalene.graph):
            assert set(find_e_cuts(G)) == e_cuts_by_definition(G)

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
        # the traversal the outer-walk route replaced, kept as its oracle:
        # each cut leaves two components, the banks, and every cut edge
        # has its white end in the same one
        for G in outerplane_suite_hosts():
            for cut in find_e_cuts(G):
                ids = mask_edge_ids(G.n_edges, cut)
                comp = component_labels(
                    G.n_vertices,
                    (e for eid, e in enumerate(G.edges) if eid not in ids),
                )
                assert max(comp) == 1
                assert len({comp[G.white_end(eid)] for eid in ids}) == 1

    def test_cut_sets_match_definition_on_small_suite_trees(self):
        small = [G for G in outerplane_suite_hosts() if G.n_edges <= 13]
        assert len(small) == 21
        for G in small:
            assert set(find_e_cuts(G)) == e_cuts_by_definition(G)

    def test_matching_hits_on_outerplane_members(self, t2, naphthalene):
        for G in (t2.graph, naphthalene.graph):
            matchings = enumerate_perfect_matchings(G)
            cuts = find_e_cuts(G)
            assert cuts
            for cut in cuts:
                for M in matchings:
                    assert (cut & edge_mask(G.n_edges, M.edge_ids)).bit_count() == 1

    def test_outerplane_check_reports_a_cut_hit_twice(self, monkeypatch, t2):
        G = t2.graph
        M = enumerate_perfect_matchings(G)[0]
        e1, e2 = sorted(M.edge_ids)[:2]
        monkeypatch.setattr(
            "matchlat.verify.find_e_cuts", lambda G: [edge_mask(G.n_edges, (e2, e1))]
        )
        assert _outerplane_case(G) == f"e-cut [{e1}, {e2}] meets a matching 2 times"

    def test_white_ends_in_both_banks_are_refused(self, c6):
        outer = c6.faces[c6.outer_face]
        walk, steps = outer.vertices, outer.edge_ids
        at = {eid: k for k, eid in enumerate(steps)}
        white_at = [walk.index(c6.white_end(eid)) for eid in range(c6.n_edges)]
        # steps 0 and 2 span positions 1..2: one white end at 1 or 2, the
        # other at 0 or 3
        with pytest.raises(AssertionError, match="both banks"):
            _e_cut_mask(at, white_at, [steps[0], steps[2]])
        top = c6.n_edges - 1
        assert _e_cut_mask(at, white_at, [steps[0], steps[1]]) == (
            1 << top - steps[0] | 1 << top - steps[1]
        )


class TestBitOrder:
    @staticmethod
    def hosts():
        small = [G for G in outerplane_suite_hosts() if G.n_edges <= 13]
        assert len(small) == 21
        return [G for _, G in _small_fixtures(DEFAULT_CAPS)] + small

    def test_edge_mask_puts_edge_e_at_bit_n_edges_minus_1_minus_e(self):
        assert [edge_mask(5, (e,)) for e in range(5)] == [16, 8, 4, 2, 1]
        assert edge_mask(5, (3, 0)) == 0b10010
        assert mask_edge_ids(5, 0b10010) == [0, 3]
        assert edge_mask(5, ()) == 0 and mask_edge_ids(5, 0) == []

    def test_every_producer_makes_canonical_masks(self):
        for G in self.hosts():
            n = G.n_edges
            assert incident_edge_masks(G) == tuple(
                edge_mask(n, G.incident_edges[v]) for v in range(G.n_vertices)
            )
            # each face's path: the edges up the dual tree to the outer face
            order, parent = dual_tree(G)
            paths = dual_tree_paths(G)
            for f in order:
                ids, g = [], f
                while parent[g] != -1:
                    ids.append(parent[g])
                    g = sum(G.edge_faces(parent[g])) - g
                assert paths[f] == edge_mask(n, ids)
            # the walk's masks against the branch search's matchings
            leaves = _enumerate_on_edges(G.n_vertices, G.edges, DEFAULT_CAPS.max_matchings)
            masks = [edge_mask(n, leaf) for leaf in leaves]
            assert [_matching_mask(G, Matching(leaf)) for leaf in leaves] == masks
            assert _flip_walk(G).masks == tuple(sorted(masks, reverse=True))
            for M1, M2 in itertools.combinations(_flip_walk(G).matchings, 2):
                for mask, steps in _split_cycles(G, M1.edge_set ^ M2.edge_set):
                    assert mask == edge_mask(n, (eid for eid, _, _ in steps))
            if is_outerplane_2connected(G):
                for cut in find_e_cuts(G):
                    # the ids a cut is read as leave two banks, and every
                    # matching has exactly one of them
                    ids = mask_edge_ids(n, cut)
                    kept = (e for eid, e in enumerate(G.edges) if eid not in ids)
                    assert max(component_labels(G.n_vertices, kept)) == 1
                    assert all((cut & m).bit_count() == 1 for m in masks)
