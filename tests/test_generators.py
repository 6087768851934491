import collections
import gc
import itertools
import math
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from matchlat import generators, matching
from matchlat import (
    Matching,
    OrientedTree,
    TruncatedParallelogramSpec,
    enumerate_perfect_matchings,
    hexagon_poset,
    link_components,
    load_graph,
    matching_geometry,
    matching_lattice,
    parse_spec,
    tree_to_outerplane,
    truncated_parallelogram,
    verify_iso_parallelogram,
)
from matchlat.caps import SizeCaps
from matchlat.errors import (
    EmbeddingConflict,
    InvalidRowLengths,
    IsoFailure,
    NoPerfectMatching,
    NotAMatching,
    NotATree,
    ParseError,
    SizeCapExceeded,
)
from matchlat.generators import (
    FALLING,
    PROPER,
    RISING,
    VERTICAL,
    _LAYOUT_DIRECTIONS,
    parallelogram_spec,
    prolate_triangle_spec,
)
from matchlat.lattice import (
    central_elements,
    direct_product,
    grid_poset,
    irreducible_decomposition,
    lattice_isomorphic,
    poset_isomorphic,
)
from matchlat.matching import kasteleyn_count
from matchlat.plane_graph import oriented_dual
from matchlat.ztransform import matching_poset

from conftest import fence, pendant_description


class TestTruncatedParallelogram:
    def test_single_hexagon(self):
        H = truncated_parallelogram(TruncatedParallelogramSpec((1,)))
        assert H.graph.n_vertices == 6

    def test_pyrene_shape(self, pyrene):
        assert pyrene.graph.n_vertices == 16
        assert len(pyrene.graph.inner_face_ids) == 4
        assert len(enumerate_perfect_matchings(pyrene.graph)) == 6

    def test_t3_catalan(self):
        H = truncated_parallelogram(prolate_triangle_spec(3))
        assert len(enumerate_perfect_matchings(H.graph)) == 14

    def test_invalid_rows(self):
        with pytest.raises(InvalidRowLengths):
            TruncatedParallelogramSpec((1, 2))
        with pytest.raises(InvalidRowLengths):
            TruncatedParallelogramSpec((2, 0))
        with pytest.raises(InvalidRowLengths):
            TruncatedParallelogramSpec(())

    def test_face_cap_checked_before_building(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            "matchlat.generators._build_graph", lambda *a: built.append(a)
        )
        with pytest.raises(SizeCapExceeded, match="900 inner faces exceeds cap 20"):
            truncated_parallelogram(parallelogram_spec(30, 30))
        assert built == []

    def test_layout_directions_are_the_atan2_order(self):
        """Each colour's directions turn clockwise from the (-1, 0) ray:
        the float key -atan2(dy, dx), kept here as the reference, ascends."""
        for directions in _LAYOUT_DIRECTIONS.values():
            keys = [-math.atan2(dy, dx) for dx, dy in directions]
            assert keys == sorted(keys) and len(set(keys)) == 3

    def test_edge_kinds_partition(self, pyrene):
        kinds = set(pyrene.edge_kind)
        assert kinds == {VERTICAL, RISING, FALLING}

    def test_root_composition(self, t2):
        # left-perimeter verticals, rising bottom slants, falling elsewhere
        root = t2.root_matching()
        for eid in root.edge_ids:
            kind = t2.edge_kind[eid]
            if kind == VERTICAL:
                assert eid in t2.left_perimeter
            elif kind == RISING:
                assert eid in t2.bottom_perimeter
            else:
                assert kind == FALLING

    def test_deterministic(self):
        a = truncated_parallelogram(parallelogram_spec(2, 2)).graph.to_json()
        b = truncated_parallelogram(parallelogram_spec(2, 2)).graph.to_json()
        assert a == b

    def test_root_check_refuses_a_broken_convention(self, monkeypatch):
        # no alternating face, then a proper one: either breaks the convention
        for tags in ([], [(0, PROPER)]):
            monkeypatch.setattr(
                "matchlat.generators.classify_alternating_faces",
                lambda G, M, tags=tags: tags,
            )
            with pytest.raises(EmbeddingConflict, match="clockwise convention"):
                truncated_parallelogram(parallelogram_spec(2, 2))

    def test_graph_and_hexagon_order_die_with_their_last_user(self):
        H = parse_spec("P(2,2)")
        P = hexagon_poset(H.spec)
        refs = [weakref.ref(H.graph), weakref.ref(P)]
        del H, P
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


class TestHexagonPoset:
    def test_parallelogram_is_grid(self):
        for m in range(1, 6):
            for n in range(1, 6):
                P = grid_poset(m, n)
                Q = hexagon_poset(parallelogram_spec(m, n))
                assert (P.labels, P.covers) == (Q.labels, Q.covers)

    def test_t2_shape(self):
        P = hexagon_poset(prolate_triangle_spec(2))
        assert P.n == 3
        assert len(P.minimal_elements) == 1
        assert len(P.maximal_elements) == 2

    def test_single_hexagon(self):
        P = hexagon_poset(TruncatedParallelogramSpec((1,)))
        assert P.n == 1

    def test_ideal_of_full_grid(self):
        rows = (3, 2, 2, 1)
        P = hexagon_poset(TruncatedParallelogramSpec(rows))
        # every down-set within the m x r1 grid restricted to the profile
        for (i, j) in P.labels:
            assert j <= rows[i - 1]
        full = grid_poset(len(rows), rows[0])
        pos = {lab: k for k, lab in enumerate(full.labels)}
        members = {pos[lab] for lab in P.labels}
        for lab in P.labels:
            below = [
                full.labels[k]
                for k in range(full.n)
                if full.leq(k, pos[lab])
            ]
            assert all(pos[b] in members for b in below)


class TestMatchingGeometry:
    def test_root_has_empty_cycle(self, pyrene):
        view = matching_geometry(pyrene, pyrene.root_matching())
        assert view.cycle_edges == frozenset()
        assert view.hexagons == frozenset()
        assert view.path_edges == pyrene.left_perimeter | pyrene.bottom_perimeter

    def test_source_bounds_everything(self, pyrene):
        from matchlat import extremal_matchings

        ext = extremal_matchings(pyrene.graph)
        view = matching_geometry(pyrene, ext.source)
        assert view.hexagons == frozenset(pyrene.hexagon_face)

    def test_order_equals_inclusion(self, pyrene):
        P = matching_poset(pyrene.graph)
        views = [matching_geometry(pyrene, M) for M in P.labels]
        n = len(views)
        for a in range(n):
            for b in range(n):
                assert P.leq(a, b) == (views[a].hexagons <= views[b].hexagons)

    def test_every_matching_validates(self, t2):
        for M in enumerate_perfect_matchings(t2.graph):
            view = matching_geometry(t2, M)
            if view.cycle_edges:
                assert t2.forcing_edge in view.cycle_edges

    def test_non_matching_is_refused(self, pyrene):
        root = pyrene.root_matching()
        for edge_ids in ((0,), root.edge_ids[1:], root.edge_ids + (pyrene.graph.n_edges,)):
            with pytest.raises(NotAMatching):
                matching_geometry(pyrene, Matching(edge_ids))

    def test_path_check_refusals(self):
        """The root's path passes.  A path plus a disjoint hexagon, which
        vertex degrees alone accept, a branch, an end edge outside the
        matching and a non-alternating path are refused."""
        H = truncated_parallelogram(TruncatedParallelogramSpec((3, 3, 3)))
        G, check = H.graph, generators._check_alternating_path
        in_m = H.root_matching().edge_set
        path = H.left_perimeter | H.bottom_perimeter
        assert len(path) == 11
        check(H, in_m, path)
        hexagon = frozenset({0, 2, 4, 11, 23, 26})
        assert hexagon in {f.edge_set for f in G.faces} and not hexagon & path
        degree = collections.Counter(v for eid in path for v in G.edges[eid])
        branch = next(
            eid for eid in range(G.n_edges)
            if eid not in path and any(degree[v] == 2 for v in G.edges[eid])
        )
        for bad in (path | hexagon, path | {branch}):
            with pytest.raises(IsoFailure, match="^path edge set is not a simple path$"):
                check(H, in_m, bad)
        with pytest.raises(IsoFailure, match="^path end edge is not in the matching$"):
            check(H, frozenset(), path)
        with pytest.raises(IsoFailure, match="^path is not alternating$"):
            check(H, in_m | path, path)


class TestParallelogramIso:
    @pytest.mark.parametrize(
        "rows,size",
        [((1, 1), 3), ((2, 2), 6), ((2, 1), 5), ((3, 2, 1), 14)],
    )
    def test_certified(self, rows, size):
        H = truncated_parallelogram(TruncatedParallelogramSpec(rows))
        cert = verify_iso_parallelogram(H)
        assert len(cert.ideal_of) == size
        assert cert.generic.isomorphic

    @pytest.mark.parametrize("rows", [(1, 1), (2, 2), (2, 1), (3, 2, 1), (3, 1)])
    def test_join_irreducibles_match_hexagon_order(self, rows):
        from matchlat.lattice import join_irreducibles

        H = truncated_parallelogram(TruncatedParallelogramSpec(rows))
        L = matching_lattice(H.graph)
        Irr, _ = join_irreducibles(L)
        assert poset_isomorphic(Irr, hexagon_poset(H.spec)) is not None

    def test_each_matching_classified_once_and_none_checked(self, pyrene, monkeypatch):
        """The matchings come from the certified enumeration: none is checked
        again, and each one's alternating faces are classified once."""
        checked, classified = [], []
        classify = generators._alternating_faces

        def counted(G, mset):
            classified.append(mset)
            return classify(G, mset)

        for module in (generators, matching):
            monkeypatch.setattr(module, "check_matching", lambda G, M: checked.append(M))
        monkeypatch.setattr(generators, "_alternating_faces", counted)
        verify_iso_parallelogram(pyrene)
        assert checked == []
        ms = enumerate_perfect_matchings(pyrene.graph)
        assert set(classified) == {M.edge_set for M in ms}
        assert len(classified) == len(ms)

    def test_only_minimum_left_vertical_is_forcing_everywhere(self):
        from matchlat import forcing_edges

        for rows in [(1,), (2, 1), (2, 2), (3, 2, 1), (4, 2)]:
            H = truncated_parallelogram(TruncatedParallelogramSpec(rows))
            assert H.forcing_edge in forcing_edges(H.graph)


class TestTreeToOuterplane:
    def test_single_node_quadrilateral(self):
        real = tree_to_outerplane(OrientedTree((1,), ()))
        assert real.graph.n_vertices == 4
        assert len(real.graph.faces) == 2

    def test_single_arc_ladder(self):
        real = tree_to_outerplane(OrientedTree((1, 2), ((1, 2),)))
        G = real.graph
        assert G.n_vertices == 6
        ms = enumerate_perfect_matchings(G)
        assert len(ms) == 3
        assert len(matching_poset(G).covers) == 2  # a 3-chain

    def test_face_degrees_optimized(self):
        # degree 2 max(in, out, 2): a balanced degree-4 center needs only
        # a quadrilateral, since in- and out-slots alternate
        tree = OrientedTree((1, 2, 3, 4, 5), ((1, 2), (1, 3), (4, 1), (5, 1)))
        real = tree_to_outerplane(tree)
        assert len(real.graph.faces[real.node_face[1]]) == 4
        for leaf in (2, 3, 4, 5):
            assert len(real.graph.faces[real.node_face[leaf]]) == 4
        # an unbalanced center needs twice its out-degree
        tree2 = OrientedTree((1, 2, 3, 4), ((1, 2), (1, 3), (1, 4)))
        real2 = tree_to_outerplane(tree2)
        assert len(real2.graph.faces[real2.node_face[1]]) == 6

    def test_sixteen_leaf_in_star_fills_the_vertex_cap(self):
        # a 32-gon center and 16 quadrilateral leaves, counted by |det K|
        star = OrientedTree(tuple(range(1, 18)), tuple((v, 1) for v in range(2, 18)))
        G = tree_to_outerplane(star).graph
        assert G.n_vertices == 64 == G.caps.max_vertices
        assert len(G.inner_face_ids) == 17
        assert kasteleyn_count(G) == 2**16 + 1

    def test_traced_face_must_be_declared_walk(self, monkeypatch):
        # mirroring the rotation at a vertex of degree 3 after gluing
        # moves one face off its declared walk
        glue = generators._glue_face

        def mirrored(colors, clockwise, a, b, length):
            walk = glue(colors, clockwise, a, b, length)
            clockwise[a].reverse()
            return walk

        monkeypatch.setattr("matchlat.generators._glue_face", mirrored)
        with pytest.raises(EmbeddingConflict, match="is not the declared walk"):
            tree_to_outerplane(OrientedTree((1, 2), ((1, 2),)))

    def test_face_cap_checked_before_building(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            "matchlat.generators._glue_face", lambda *a: built.append(a)
        )
        path = OrientedTree(tuple(range(21)), tuple((i, i + 1) for i in range(20)))
        with pytest.raises(SizeCapExceeded, match="21 inner faces exceeds cap 20"):
            tree_to_outerplane(path)
        assert built == []

    def test_not_a_tree(self):
        with pytest.raises(NotATree):
            OrientedTree((1, 2, 3), ((1, 2),))
        with pytest.raises(NotATree):
            OrientedTree((1, 2, 3), ((1, 2), (2, 3), (3, 1)))

    def test_dual_recovery_all_orientations_small(self):
        edges = ((1, 2), (2, 3))
        for flips in itertools.product((False, True), repeat=2):
            arcs = tuple(
                (v, u) if f else (u, v) for (u, v), f in zip(edges, flips)
            )
            tree = OrientedTree((1, 2, 3), arcs)
            real = tree_to_outerplane(tree)
            dual = oriented_dual(real.graph, include_outer=False)
            want = {(real.node_face[u], real.node_face[v]) for u, v in arcs}
            assert dual.arc_set == frozenset(want)

    def test_dual_recovery_eight_node_path_and_star(self):
        # exhaustive over all 2^7 orientations of a fixed path and star
        path = tuple((i, i + 1) for i in range(1, 8))
        star = tuple((1, i) for i in range(2, 9))
        caps = SizeCaps(max_vertices=128, max_inner_faces=30)
        for edges in (path, star):
            for mask in range(1 << 7):
                arcs = tuple(
                    (v, u) if mask >> k & 1 else (u, v)
                    for k, (u, v) in enumerate(edges)
                )
                tree = OrientedTree(tuple(range(1, 9)), arcs)
                real = tree_to_outerplane(tree, caps=caps)
                dual = oriented_dual(real.graph, include_outer=False)
                want = {
                    (real.node_face[u], real.node_face[v]) for u, v in arcs
                }
                assert dual.arc_set == frozenset(want)

    def test_dual_recovery_sampled_trees_to_8(self):
        shapes = [
            ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 8)),
            ((1, 2), (1, 3), (1, 4), (4, 5), (4, 6), (6, 7), (6, 8)),
            ((1, 2), (2, 3), (2, 4), (4, 5), (5, 6), (5, 7), (7, 8)),
        ]
        caps = SizeCaps(max_vertices=128, max_inner_faces=30)
        for edges in shapes:
            for mask in range(0, 1 << 7, 11):
                arcs = tuple(
                    (v, u) if mask >> k & 1 else (u, v)
                    for k, (u, v) in enumerate(edges)
                )
                tree = OrientedTree(tuple(range(1, 9)), arcs)
                real = tree_to_outerplane(tree, caps=caps)
                dual = oriented_dual(real.graph, include_outer=False)
                want = {
                    (real.node_face[u], real.node_face[v]) for u, v in arcs
                }
                assert dual.arc_set == frozenset(want)


class TestLinkComponents:
    def test_two_hexagons(self, hexagon_gen):
        linked = link_components([hexagon_gen.graph, hexagon_gen.graph])
        L = matching_lattice(linked.graph)
        two = direct_product(
            matching_lattice(hexagon_gen.graph),
            matching_lattice(hexagon_gen.graph),
        )
        assert lattice_isomorphic(L, two).isomorphic

    def test_hexagon_plus_naphthalene_is_2x3(self, hexagon_gen, naphthalene):
        from matchlat.lattice import chain_poset, lattice_from_poset

        linked = link_components([hexagon_gen.graph, naphthalene.graph])
        L = matching_lattice(linked.graph)
        two_by_three = direct_product(
            lattice_from_poset(chain_poset(2)), lattice_from_poset(chain_poset(3))
        )
        assert lattice_isomorphic(L, two_by_three).isomorphic

    def test_single_graph_identity(self, hexagon_gen):
        linked = link_components([hexagon_gen.graph])
        assert linked.graph is hexagon_gen.graph
        assert linked.new_edges == ()

    def test_components_are_counted_not_enumerated(self):
        # 2.7 M and 2.7e8 matchings, far over the default matchings cap
        caps = SizeCaps(max_vertices=1000, max_inner_faces=200)
        parts = [parse_spec("P(12,12)", caps).graph, parse_spec(fence(40), caps).graph]
        linked = link_components(parts, caps)
        assert linked.graph.n_vertices == sum(G.n_vertices for G in parts)

    def test_component_without_perfect_matching_is_refused(self, hexagon_gen):
        path = load_graph({
            "vertices": [{"id": v, "color": ("white", "black")[v % 2]} for v in range(3)],
            "edges": [[0, 1], [1, 2]],
            "rotation": {"0": [0], "1": [0, 1], "2": [1]},
        })
        # the pendant hexagon less its last vertex: an inner face that is no
        # simple cycle, so no Kasteleyn count, and seven vertices
        desc = pendant_description()
        desc["vertices"].pop()
        desc["edges"].pop()
        desc["rotation"]["6"] = [2]
        del desc["rotation"]["7"]
        odd = load_graph(desc)
        assert kasteleyn_count(path) == 0 and kasteleyn_count(odd) is None
        for G in (path, odd):
            with pytest.raises(NoPerfectMatching):
                link_components([hexagon_gen.graph, G])

    def test_central_elements_are_unit_tuples(self, hexagon_gen, naphthalene):
        linked = link_components([hexagon_gen.graph, naphthalene.graph])
        L = matching_lattice(linked.graph)
        dec = irreducible_decomposition(L)
        cents = central_elements(L)
        assert len(cents) == len(dec.factors) == 2
        for x in cents:
            coords = dec.product_iso[x]
            tops = sum(
                1 for c, F in enumerate(dec.factors) if coords[c] == F.top
            )
            bottoms = sum(
                1 for c, F in enumerate(dec.factors) if coords[c] == F.bottom
            )
            assert tops == 1 and bottoms == len(dec.factors) - 1


@st.composite
def oriented_trees(draw, max_nodes=7):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    arcs = []
    for v in range(2, n + 1):
        parent = draw(st.integers(min_value=1, max_value=v - 1))
        arcs.append((parent, v) if draw(st.booleans()) else (v, parent))
    return OrientedTree(tuple(range(1, n + 1)), tuple(arcs))


class TestRandomized:
    @given(oriented_trees())
    @settings(max_examples=25, deadline=None)
    def test_realization_certifies_and_orders(self, tree):
        from matchlat import verify_iso_matchings_ideals

        caps = SizeCaps(max_vertices=128, max_inner_faces=30)
        real = tree_to_outerplane(tree, caps=caps)
        cert = verify_iso_matchings_ideals(real.graph)
        assert len(cert.ideal_of) == len(
            enumerate_perfect_matchings(real.graph)
        )

    @given(st.lists(st.sampled_from([(1,), (1, 1), (2, 1)]), min_size=2, max_size=3))
    @settings(max_examples=15, deadline=None)
    def test_linked_lattice_sizes_multiply(self, profiles):
        graphs = [
            truncated_parallelogram(TruncatedParallelogramSpec(p)).graph
            for p in profiles
        ]
        linked = link_components(graphs)
        expect = 1
        for G in graphs:
            expect *= len(enumerate_perfect_matchings(G))
        assert len(enumerate_perfect_matchings(linked.graph)) == expect


@pytest.mark.parametrize("build, builds", [
    (lambda C6: parse_spec("L(3,2,1)"), 1),
    (lambda C6: parse_spec("tree:1>2,3>2,3>4"), 1),
    (lambda C6: link_components([C6, C6, C6]), 2),
], ids=["truncated_parallelogram", "tree_to_outerplane", "link_components"])
def test_each_generated_host_is_traced_once(monkeypatch, build, builds):
    """The generators find their outer face on the walks the graph
    builder traces, so each graph built traces its rotation once."""
    from matchlat import plane_graph

    C6 = parse_spec("L(1)").graph
    traced = []
    trace = plane_graph._trace_rotation

    def counted(edges, rotation):
        traced.append(len(edges))
        return trace(edges, rotation)

    monkeypatch.setattr(plane_graph, "_trace_rotation", counted)
    build(C6)
    assert len(traced) == builds


class TestParseSpec:
    def test_forms(self):
        assert parse_spec("P(2,2)").graph.n_vertices == 16
        assert parse_spec("T(2)").graph.n_vertices == 14
        assert parse_spec("L(3,2,1)").graph.n_vertices == 24
        assert parse_spec("tree:1>2,1>3").graph.n_vertices > 0
        assert parse_spec("tree:7").graph.n_vertices == 4

    def test_parse_errors(self):
        for bad in ("Q(2)", "P(2)", "L()", "tree:1>", "P(a,b)"):
            with pytest.raises(ParseError):
                parse_spec(bad)
