import gc
import weakref

import pytest

from matchlat import (
    build_z_digraph,
    delta_cycle_count,
    enumerate_perfect_matchings,
    extremal_matchings,
    face_poset_outerplane,
    link_components,
    load_graph,
    matching_lattice,
    matching_poset,
    parse_spec,
    path_face_multiplicity,
    sigma,
    truncated_parallelogram,
    verify_iso_matchings_ideals,
)
from matchlat.errors import (
    DirectedCycleInInnerDual,
    IsoFailure,
    MultipleSinks,
    MultipleSources,
    NotAMatching,
    NotAPath,
    NotComparable,
    NotOuterplane,
    SizeCapExceeded,
)
from matchlat.generators import (
    OrientedTree,
    TruncatedParallelogramSpec,
    tree_to_outerplane,
)
from matchlat.lattice import (
    grid_poset,
    irreducible_decomposition,
    lattice_isomorphic,
    order_ideal_lattice,
    poset_isomorphic,
)
from matchlat.matching import (
    IMPROPER,
    PROPER,
    Matching,
    classify_alternating_faces,
    matching_index,
)
from matchlat.ztransform import certify_ideal_map, directed_paths

from conftest import c6_description, pendant_description


class TestZDigraph:
    def test_c6(self, c6):
        Z = build_z_digraph(c6)
        assert Z.n == 2
        assert len(Z.arcs) == 1

    def test_naphthalene_chain(self, naphthalene):
        Z = build_z_digraph(naphthalene.graph)
        assert Z.n == 3
        assert len(Z.arcs) == 2

    def test_pyrene_is_j22(self, pyrene):
        L = matching_lattice(pyrene.graph)
        J, _ = order_ideal_lattice(grid_poset(2, 2))
        assert lattice_isomorphic(L, J).isomorphic

    def test_arcs_flip_proper_faces(self, t2):
        G = t2.graph
        Z = build_z_digraph(G)
        for a, b, fid in Z.arcs:
            Ma, Mb = Z.matchings[a], Z.matchings[b]
            assert Ma.edge_set ^ Mb.edge_set == G.faces[fid].edge_set
            tags = dict(classify_alternating_faces(G, Ma))
            assert tags[fid] == PROPER

    def test_pendant_graph_has_no_arcs(self, pendant):
        Z = build_z_digraph(pendant)
        assert Z.n == 2
        assert Z.arcs == ()

    def test_arc_set_complete_over_all_pairs(self, t2, pyrene):
        # independent route: scan all matching pairs for single-face
        # differences instead of flipping faces of each matching
        for G in (t2.graph, pyrene.graph):
            Z = build_z_digraph(G)
            ms = Z.matchings
            face_sets = {G.faces[f].edge_set for f in G.inner_face_ids}
            expected = {
                frozenset((i, j))
                for i in range(len(ms))
                for j in range(i + 1, len(ms))
                if ms[i].edge_set ^ ms[j].edge_set in face_sets
            }
            got = {frozenset((a, b)) for a, b, _ in Z.arcs}
            assert got == expected

    def test_face_classification_agrees_with_generic_cycle_rule(self, pyrene):
        # the face-walk shortcut and the interior-orientation rule must
        # classify facial alternating cycles identically
        from matchlat.matching import classify_cycle

        G = pyrene.graph
        for M in enumerate_perfect_matchings(G):
            for fid, cls in classify_alternating_faces(G, M):
                rep = classify_cycle(G, M, G.faces[fid].edge_set)
                assert rep.orientation_class == cls
                assert rep.enclosed_faces == frozenset({fid})


def reference_arcs(G):
    """The per-matching route: flip each face classified proper, then sort."""
    index = matching_index(G)
    return tuple(sorted(
        (i, index[M.flip(G.faces[fid].edge_set)], fid)
        for i, M in enumerate(enumerate_perfect_matchings(G))
        for fid, cls in classify_alternating_faces(G, M)
        if cls == PROPER
    ))


def reference_host(name):
    C6 = parse_spec("L(1)").graph
    if name == "linked C6x3":
        return link_components([C6, C6, C6]).graph
    if name == "C6+pendant+C6":  # two weak components, with arcs
        return link_components([C6, load_graph(pendant_description()), C6]).graph
    if name == "pendant":  # its one inner face is not a simple cycle
        return load_graph(pendant_description())
    if name == "fence-12":
        return parse_spec("tree:1>2,3>2,3>4,5>4,5>6,7>6,7>8,9>8,9>10,11>10,11>12").graph
    return parse_spec(name).graph


class TestMaskRoute:
    @pytest.mark.parametrize("host", [
        "P(2,3)", "P(3,3)", "T(3)", "T(4)", "L(3,2,2)", "L(4,2,1)",
        "linked C6x3", "C6+pendant+C6", "pendant", "fence-12",
    ])
    def test_arcs_equal_the_per_matching_route(self, host):
        G = reference_host(host)
        assert build_z_digraph(G).arcs == reference_arcs(G)

    def test_disconnected_host_has_arcs_in_both_components(self):
        mp = matching_poset(reference_host("C6+pendant+C6"))
        assert len(mp.components) == 2
        assert len(mp.digraph.arcs) == 8

    @pytest.mark.parametrize("edge_ids, message", [
        ((0, 1, 3), "edges share vertex at edge 1"),
        ((0, 3), "not all vertices are covered"),
        ((0, 3, 99), "unknown edge id 99"),
    ])
    def test_non_matching_is_refused(self, monkeypatch, edge_ids, message):
        from matchlat import ztransform

        G = load_graph(c6_description())
        good = enumerate_perfect_matchings(G)
        monkeypatch.setattr(ztransform, "enumerate_perfect_matchings",
                            lambda G: good + (Matching(edge_ids),))
        with pytest.raises(NotAMatching, match=message):
            build_z_digraph(G)


class TestMatchingPoset:
    def test_c6_two_chain(self, c6):
        mp = matching_poset(c6)
        assert mp.poset.n == 2
        assert len(mp.poset.covers) == 1
        assert len(mp.components) == 1

    def test_pendant_components(self, pendant):
        mp = matching_poset(pendant)
        assert len(mp.components) == 2
        lattices = mp.component_lattices()
        assert [L.n for L in lattices] == [1, 1]

    def test_t2_is_j_r2(self, t2):
        L = matching_lattice(t2.graph)
        assert L.n == 5
        from matchlat import hexagon_poset

        J, _ = order_ideal_lattice(hexagon_poset(t2.spec))
        assert lattice_isomorphic(L, J).isomorphic

    def test_cover_equals_arc_set(self, pyrene, t2):
        for G in (pyrene.graph, t2.graph):
            mp = matching_poset(G)
            covers = {(b, a) for a, b, _ in mp.digraph.arcs}
            assert covers == set(mp.poset.covers)


class TestExtremalMatchings:
    def test_c6(self, c6):
        ext = extremal_matchings(c6)
        assert {ext.source, ext.root} == set(enumerate_perfect_matchings(c6))

    def test_parallelogram_root_is_canonical(self):
        for rows in [(1,), (2, 1), (2, 2), (3, 2), (3, 2, 1)]:
            H = truncated_parallelogram(TruncatedParallelogramSpec(rows))
            ext = extremal_matchings(H.graph)
            assert ext.root == H.root_matching()

    def test_boundary_alternating_for_elementary(self, pyrene):
        # the outer boundary is proper for the source, improper for the root
        from matchlat.matching import classify_cycle

        G = pyrene.graph
        ext = extremal_matchings(G)
        boundary = frozenset(
            eid for eid in range(G.n_edges) if G.outer_face in G.edge_faces(eid)
        )
        assert classify_cycle(G, ext.source, boundary).orientation_class == PROPER
        assert classify_cycle(G, ext.root, boundary).orientation_class == IMPROPER

    def test_pendant_multiple_extremes(self, pendant):
        with pytest.raises((MultipleSources, MultipleSinks)):
            extremal_matchings(pendant)


class TestDeltaAndPaths:
    def test_delta_zero_on_equal(self, c6):
        m1, _ = enumerate_perfect_matchings(c6)
        for f in c6.inner_face_ids:
            assert delta_cycle_count(c6, m1, m1, f) == 0

    def test_c6_delta_one(self, c6):
        ext = extremal_matchings(c6)
        f = c6.inner_face_ids[0]
        assert delta_cycle_count(c6, ext.source, ext.root, f) == 1

    def test_extremes_enclose_every_face(self, pyrene):
        G = pyrene.graph
        ext = extremal_matchings(G)
        for f in G.inner_face_ids:
            assert delta_cycle_count(G, ext.source, ext.root, f) >= 1

    def test_not_comparable(self, pyrene):
        G = pyrene.graph
        mp = matching_poset(G)
        incomparable = [
            (i, j)
            for i in range(mp.poset.n)
            for j in range(mp.poset.n)
            if i != j and not mp.leq(i, j) and not mp.leq(j, i)
        ]
        i, j = incomparable[0]
        with pytest.raises(NotComparable):
            delta_cycle_count(
                G, mp.matchings[i], mp.matchings[j], G.inner_face_ids[0]
            )

    def test_path_multiplicity_matches_delta(self, pyrene):
        G = pyrene.graph
        mp = matching_poset(G)
        ext = extremal_matchings(G)
        paths = directed_paths(G, ext.source_index, ext.root_index)
        assert paths
        for path in paths:
            ms = [mp.matchings[k] for k in path]
            for f in G.inner_face_ids:
                assert path_face_multiplicity(G, ms, f) == delta_cycle_count(
                    G, ext.source, ext.root, f
                ) == 1

    def test_directed_paths_over_cap_raise(self, t2):
        G = t2.graph
        ext = extremal_matchings(G)
        s, r = ext.source_index, ext.root_index
        assert (s, r) == (4, 0)
        # the two linear extensions of the T(2) face poset
        assert directed_paths(G, s, r) == [(4, 2, 1, 0), (4, 3, 1, 0)]
        assert directed_paths(G, s, r, cap=2) == directed_paths(G, s, r)
        with pytest.raises(SizeCapExceeded, match="more than 1 directed paths"):
            directed_paths(G, s, r, cap=1)

    def test_empty_path(self, c6):
        m1, _ = enumerate_perfect_matchings(c6)
        assert path_face_multiplicity(c6, [m1], c6.inner_face_ids[0]) == 0

    def test_not_a_path(self, c6):
        ms = enumerate_perfect_matchings(c6)
        ext = extremal_matchings(c6)
        with pytest.raises(NotAPath):
            path_face_multiplicity(c6, [ext.root, ext.source], c6.inner_face_ids[0])


class TestFacePoset:
    def test_directed_cycle_is_reported(self, monkeypatch):
        from matchlat import ztransform
        from matchlat.plane_graph import DualArc, DualDigraph

        G = tree_to_outerplane(OrientedTree((1, 2), ((1, 2),))).graph
        f, g = G.inner_face_ids
        cyclic = DualDigraph(
            nodes=(f, g),
            arcs=(DualArc(f, g, 0), DualArc(g, f, 1)),
            includes_outer=False,
        )
        monkeypatch.setattr(ztransform, "oriented_dual", lambda G, include_outer: cyclic)
        with pytest.raises(DirectedCycleInInnerDual):
            face_poset_outerplane(G)

    def test_naphthalene_two_chain(self, naphthalene):
        F = face_poset_outerplane(naphthalene.graph)
        assert F.n == 2
        assert len(F.covers) == 1

    def test_hexagon_single_face(self, c6):
        F = face_poset_outerplane(c6)
        assert F.n == 1

    def test_pyrene_not_outerplane(self, pyrene):
        with pytest.raises(NotOuterplane):
            face_poset_outerplane(pyrene.graph)

    def test_star_tree_poset_matches_orientation(self):
        tree = OrientedTree((1, 2, 3, 4), ((1, 2), (1, 3), (1, 4)))
        real = tree_to_outerplane(tree)
        F = face_poset_outerplane(real.graph)
        # out-star: the center face is above every leaf face
        pos = {f: i for i, f in enumerate(F.labels)}
        center = real.node_face[1]
        for leaf in (2, 3, 4):
            assert F.leq(pos[real.node_face[leaf]], pos[center])

    def test_agrees_with_hexagon_order_on_catacondensed(self, t2):
        from matchlat import hexagon_poset

        F = face_poset_outerplane(t2.graph)
        assert poset_isomorphic(F, hexagon_poset(t2.spec)) is not None


class TestSigma:
    def test_extremes(self, naphthalene):
        G = naphthalene.graph
        ext = extremal_matchings(G)
        assert sigma(G, ext.root) == frozenset()
        assert sigma(G, ext.source) == frozenset(G.inner_face_ids)

    def test_middle_matching_of_naphthalene(self, naphthalene):
        G = naphthalene.graph
        ext = extremal_matchings(G)
        middle = next(
            M
            for M in enumerate_perfect_matchings(G)
            if M not in (ext.root, ext.source)
        )
        ideal = sigma(G, middle)
        assert len(ideal) == 1
        # the enclosed face is the minimum of the face poset
        F = face_poset_outerplane(G)
        pos = {f: i for i, f in enumerate(F.labels)}
        (f,) = ideal
        assert all(F.leq(pos[f], pos[g]) for g in F.labels)

    def test_sigma_drops_single_face_per_cover(self, t2):
        G = t2.graph
        Z = build_z_digraph(G)
        for a, b, fid in Z.arcs:
            sa = sigma(G, Z.matchings[a])
            sb = sigma(G, Z.matchings[b])
            assert sa - sb == {fid}
            assert sb < sa

    def test_sigma_equals_faces_flipped_on_any_path_to_root(self, t2):
        G = t2.graph
        Z = build_z_digraph(G)
        ext = extremal_matchings(G)
        label_of = {(a, b): f for a, b, f in Z.arcs}
        for i, M in enumerate(Z.matchings):
            want = sigma(G, M)
            for path in directed_paths(G, i, ext.root_index):
                flipped = {label_of[(a, b)] for a, b in zip(path, path[1:])}
                assert flipped == want


class TestIdealIso:
    def test_hexagon(self, c6):
        cert = verify_iso_matchings_ideals(c6)
        assert len(cert.ideal_of) == 2

    def test_t2_five_elements(self, t2):
        cert = verify_iso_matchings_ideals(t2.graph)
        assert len(cert.ideal_of) == 5

    def test_swapped_images_give_a_cover_witness(self, t2):
        G = t2.graph
        mp = matching_poset(G)
        images = list(verify_iso_matchings_ideals(G).ideal_of)
        ext = extremal_matchings(G)
        s, r = ext.source_index, ext.root_index
        images[s], images[r] = images[r], images[s]
        with pytest.raises(IsoFailure, match="does not map to a cover") as exc:
            certify_ideal_map(mp, images, face_poset_outerplane(G), G.caps)
        # every cover away from the two swapped matchings still maps to a cover
        witness = str(exc.value)
        assert repr(mp.matchings[s]) in witness or repr(mp.matchings[r]) in witness

    def test_random_tree_orientations(self):
        import itertools

        edges = ((1, 2), (2, 3), (2, 4))
        for flips in itertools.product((False, True), repeat=3):
            arcs = tuple(
                (v, u) if f else (u, v) for (u, v), f in zip(edges, flips)
            )
            real = tree_to_outerplane(OrientedTree((1, 2, 3, 4), arcs))
            cert = verify_iso_matchings_ideals(real.graph)
            assert len(cert.ideal_of) == len(
                enumerate_perfect_matchings(real.graph)
            )


class TestOrientationSymmetries:
    def test_outer_face_choice_dualizes(self):
        # the same rotation system with the other face outside is the
        # mirror drawing: source and root swap
        from conftest import c6_description
        from matchlat import load_graph

        g1 = load_graph(c6_description(outer_face=1))
        g0 = load_graph(c6_description(outer_face=0))
        e1 = extremal_matchings(g1)
        e0 = extremal_matchings(g0)
        assert e1.source.edge_ids == e0.root.edge_ids
        assert e1.root.edge_ids == e0.source.edge_ids

    def test_color_swap_dualizes(self):
        from conftest import c6_description
        from matchlat import load_graph

        desc = c6_description()
        g1 = load_graph(desc)
        swapped = dict(desc)
        swapped["vertices"] = [
            {"id": v["id"], "color": "black" if v["color"] == "white" else "white"}
            for v in desc["vertices"]
        ]
        g2 = load_graph(swapped)
        e1 = extremal_matchings(g1)
        e2 = extremal_matchings(g2)
        assert e1.source.edge_ids == e2.root.edge_ids

    def test_t2_lattice_is_not_self_dual(self, t2):
        from matchlat.lattice import lattice_from_poset

        L = matching_lattice(t2.graph)
        Ld = lattice_from_poset(L.poset.dual())
        res = lattice_isomorphic(L, Ld)
        assert not res.isomorphic


class TestLinkedLattice:
    def test_product_of_three(self, hexagon_gen, naphthalene):
        linked = link_components(
            [hexagon_gen.graph, naphthalene.graph, hexagon_gen.graph]
        )
        L = matching_lattice(linked.graph)
        assert L.n == 2 * 3 * 2
        from matchlat.lattice import central_elements, irreducible_decomposition

        dec = irreducible_decomposition(L)
        assert sorted(F.n for F in dec.factors) == [2, 2, 3]
        assert len(central_elements(L)) == 3


def test_derived_data_dies_with_its_graph():
    G = load_graph(c6_description())
    for derive in (enumerate_perfect_matchings, matching_index, build_z_digraph,
                   matching_poset, extremal_matchings, face_poset_outerplane):
        assert derive(G) is derive(G)
    L = matching_lattice(G)
    assert irreducible_decomposition(L) is irreducible_decomposition(L)
    refs = [weakref.ref(G), weakref.ref(L)]
    del G, L
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
