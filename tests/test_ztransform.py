import gc
import json
import weakref
from dataclasses import replace
from functools import cache

import pytest

from matchlat import (
    all_alternating_cycles,
    build_z_digraph,
    enumerate_perfect_matchings,
    extremal_matchings,
    face_poset_outerplane,
    find_e_cuts,
    link_components,
    load_graph,
    load_graph_file,
    matching_lattice,
    matching_poset,
    oriented_dual,
    parse_spec,
    sigma,
    truncated_parallelogram,
    verify_iso_matchings_ideals,
)
from matchlat.caps import DEFAULT_CAPS, SizeCaps
from matchlat.errors import (
    CycleDetected,
    DirectedCycleInInnerDual,
    HasseMismatch,
    IsoFailure,
    MatchlatError,
    MultipleSinks,
    MultipleSources,
    NoPerfectMatching,
    NotALattice,
    NotAMatching,
    NotAPath,
    NotOuterplane,
    SizeCapExceeded,
)
from matchlat.generators import (
    OrientedTree,
    TruncatedParallelogramSpec,
    tree_to_outerplane,
)
from matchlat.lattice import (
    FinitePoset,
    central_elements,
    grid_poset,
    irreducible_decomposition,
    lattice_from_poset,
    lattice_isomorphic,
    order_ideal_lattice,
    poset_from_relation,
    poset_isomorphic,
)
from matchlat.matching import (
    IMPROPER,
    PROPER,
    AlternatingCycleReport,
    Matching,
    _difference_cycles,
    classify_alternating_faces,
    matching_index,
)
from matchlat.verify import (
    MAX_FLIP_PATHS,
    VerificationReport,
    _outerplane_case,
    check_delta_path_invariance,
    check_outerplane,
)
from matchlat.ztransform import (
    _delta_counts,
    _path_face_counts,
    certify_ideal_map,
    decomposition_by_components,
    directed_paths,
)

from conftest import (
    cycle_report,
    c6_description,
    decomposition_hosts,
    outerplane_suite_hosts,
    pendant_description,
    reference_arcs,
)


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

    @pytest.mark.parametrize("spec", ["P(2,2)", "T(3)", "tree:1>2,3>2,3>4"])
    def test_one_matchings_tuple_per_graph(self, spec):
        G = parse_spec(spec).graph
        Z = build_z_digraph(G)
        assert enumerate_perfect_matchings(G) is Z.matchings
        assert Z.n == len(Z.masks) == len(Z.matchings)
        # the walk's masks, edge e at bit n_edges - 1 - e, are the matchings
        top = G.n_edges - 1
        assert Z.masks == tuple(sum(1 << top - e for e in M.edge_ids) for M in Z.matchings)

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
        G = pyrene.graph
        for M in enumerate_perfect_matchings(G):
            for fid, cls in classify_alternating_faces(G, M):
                rep = cycle_report(G, M, G.faces[fid].edge_set)
                assert rep.orientation_class == cls
                assert rep.enclosed_faces == frozenset({fid})


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


REFERENCE_HOSTS = [
    "P(2,3)", "P(3,3)", "T(3)", "T(4)", "L(3,2,2)", "L(4,2,1)",
    "linked C6x3", "C6+pendant+C6", "pendant", "fence-12",
]


class TestMaskRoute:
    @pytest.mark.parametrize("host", REFERENCE_HOSTS)
    def test_arcs_equal_the_per_matching_route(self, host):
        G = reference_host(host)
        assert build_z_digraph(G).arcs == reference_arcs(G)

    @pytest.mark.parametrize("host", REFERENCE_HOSTS)
    def test_arcs_are_the_table_in_threes(self, host):
        Z = build_z_digraph(reference_host(host))
        assert type(Z.arc_table) is tuple
        assert Z.arcs == tuple(zip(*[iter(Z.arc_table)] * 3))

    @pytest.mark.parametrize("host", REFERENCE_HOSTS)
    def test_face_of_is_the_table_by_pair(self, host):
        Z = build_z_digraph(reference_host(host))
        assert Z.face_of == {(a, b): f for a, b, f in Z.arcs}

    def test_face_of_builds_no_arc_tuples(self):
        Z = build_z_digraph(parse_spec("T(3)").graph)
        assert Z.face_of
        assert "arcs" not in vars(Z)

    @pytest.mark.parametrize("host", REFERENCE_HOSTS)
    def test_directed_paths_equal_a_search_over_the_arcs(self, host):
        """Every pair with at most MAX_FLIP_PATHS paths between them (at
        most 100 on fence-12, whose 3.8 million paths under the full cap
        take about 15 s) against a recursive search over ``Z.arcs``."""
        G = reference_host(host)
        Z = build_z_digraph(G)
        limit = 100 if host == "fence-12" else MAX_FLIP_PATHS
        succ = [[] for _ in range(Z.n)]
        for a, b, _ in Z.arcs:
            succ[a].append(b)
        for end in range(Z.n):
            @cache
            def ways(x):
                return 1 if x == end else sum(ways(y) for y in succ[x])

            def walk(path):
                if path[-1] == end:
                    yield tuple(path)
                    return
                for b in succ[path[-1]]:
                    if ways(b):
                        yield from walk(path + [b])

            for start in range(Z.n):
                if ways(start) <= limit:
                    assert directed_paths(G, start, end) == list(walk([start]))

    @pytest.mark.parametrize("fmt", ["json", "text", "dot"])
    def test_cli_writers_read_the_table(self, monkeypatch, tmp_path, fmt):
        """The zdig writers never build the per-arc tuples."""
        from matchlat import cli

        loaded = []

        def load(path, caps):
            loaded.append(load_graph_file(path, caps))
            return loaded[-1]

        path = tmp_path / "t3.json"
        path.write_text(json.dumps(parse_spec("T(3)").graph.to_json()))
        monkeypatch.setattr(cli, "load_graph_file", load)
        out = tmp_path / f"zdig.{fmt}"
        assert cli.main(["analyze", str(path), "zdig", "--format", fmt,
                         "--out", str(out)]) == 0
        Z = build_z_digraph(loaded[0])
        assert Z.arc_table
        assert "arcs" not in vars(Z)

    def test_disconnected_host_has_arcs_in_both_components(self):
        G = reference_host("C6+pendant+C6")
        assert len(matching_poset(G).components) == 2
        assert len(build_z_digraph(G).arcs) == 8

    @pytest.mark.parametrize("edge_ids, message", [
        ((0, 1, 3), "edges share vertex at edge 1"),
        ((0, 3), "not all vertices are covered"),
        ((0, 3, 99), "unknown edge id 99"),
    ])
    def test_non_matching_is_refused(self, monkeypatch, edge_ids, message):
        # the flip route starts from the branch search's first leaf
        from matchlat import matching

        G = load_graph(c6_description())
        monkeypatch.setattr(matching, "_search_tree", lambda n, edges: iter([edge_ids]))
        with pytest.raises(NotAMatching, match=message):
            build_z_digraph(G)

    @pytest.mark.parametrize("spec", ["L(1)", "P(2,2)", "T(3)"])
    def test_a_directed_two_cycle_is_refused(self, monkeypatch, spec):
        """One face listed again with white and black swapped: its flips
        then run both ways, and the walk must not take them for covers."""
        from matchlat import matching

        faces = matching.flip_faces

        def doubled(G):
            fid, face, white = faces(G)[0]
            return faces(G) + ((fid, face, face ^ white),)

        monkeypatch.setattr(matching, "flip_faces", doubled)
        with pytest.raises(CycleDetected, match="directed cycle"):
            build_z_digraph(parse_spec(spec).graph)

    @pytest.mark.parametrize("spec", ["L(1)", "P(2,2)", "T(3)"])
    def test_a_repeated_cover_is_refused(self, monkeypatch, spec):
        """One face listed twice: the walk records each of its covers
        twice, and the poset must refuse the digraph as a Hasse diagram."""
        from matchlat import matching

        faces = matching.flip_faces

        def doubled(G):
            return faces(G) + faces(G)[:1]

        monkeypatch.setattr(matching, "flip_faces", doubled)
        G = parse_spec(spec).graph
        t = build_z_digraph(G).arc_table
        assert len(set(zip(t[0::3], t[1::3]))) < len(t) // 3
        with pytest.raises(HasseMismatch, match="not a Hasse diagram"):
            matching_poset(G)


class TestMatchingPoset:
    def test_is_one_poset_on_the_digraphs_matchings(self, t2):
        P = matching_poset(t2.graph)
        assert type(P) is FinitePoset
        assert P.labels is build_z_digraph(t2.graph).matchings

    def test_c6_two_chain(self, c6):
        P = matching_poset(c6)
        assert P.n == 2
        assert len(P.covers) == 1
        assert len(P.components) == 1

    def test_pendant_components(self, pendant):
        P = matching_poset(pendant)
        assert len(P.components) == 2
        lattices = [lattice_from_poset(P.subposet(c)) for c in P.components]
        assert [L.n for L in lattices] == [1, 1]

    def test_t2_is_j_r2(self, t2):
        L = matching_lattice(t2.graph)
        assert L.n == 5
        from matchlat import hexagon_poset

        J, _ = order_ideal_lattice(hexagon_poset(t2.spec))
        assert lattice_isomorphic(L, J).isomorphic

    def test_cover_equals_arc_set(self, pyrene, t2):
        for G in (pyrene.graph, t2.graph):
            covers = {(b, a) for a, b, _ in build_z_digraph(G).arcs}
            assert covers == set(matching_poset(G).covers)


def assert_extremes_certified(G):
    """The source has no improper alternating cycle, the root no proper one."""
    ext = extremal_matchings(G)
    source = all_alternating_cycles(G, ext.source)
    root = all_alternating_cycles(G, ext.root)
    assert all(r.orientation_class == PROPER for r in source)
    assert all(r.orientation_class == IMPROPER for r in root)


class TestExtremalMatchings:
    def test_c6(self, c6):
        ext = extremal_matchings(c6)
        assert {ext.source, ext.root} == set(enumerate_perfect_matchings(c6))

    def test_parallelogram_root_is_canonical(self):
        for rows in [(1,), (2, 1), (2, 2), (3, 2), (3, 2, 1)]:
            H = truncated_parallelogram(TruncatedParallelogramSpec(rows))
            ext = extremal_matchings(H.graph)
            assert ext.root == H.root_matching()
            assert_extremes_certified(H.graph)

    @pytest.mark.parametrize("host", REFERENCE_HOSTS)
    def test_extremes_are_certified(self, host):
        G = reference_host(host)
        P = matching_poset(G)
        if len(P.maximal_elements) == len(P.minimal_elements) == 1:
            assert_extremes_certified(G)
        else:
            with pytest.raises((MultipleSources, MultipleSinks)):
                extremal_matchings(G)

    def test_production_reads_no_alternating_cycles(self, monkeypatch, naphthalene):
        """The extremes are read off the certified order; their cycle
        certificate belongs to the outerplane suite."""
        from matchlat import matching, ztransform

        def refuse(G, M):
            raise AssertionError("all_alternating_cycles called")

        monkeypatch.setattr(matching, "all_alternating_cycles", refuse)
        assert "all_alternating_cycles" not in vars(ztransform)
        G = naphthalene.graph
        ext = extremal_matchings(G)
        assert sigma(G, ext.source) == frozenset(G.inner_face_ids)

    def test_outerplane_suite_reports_a_proper_root_cycle(self, monkeypatch):
        from matchlat import verify
        from matchlat.matching import AlternatingCycleReport

        G = tree_to_outerplane(OrientedTree((1, 2, 3), ((1, 2), (3, 2)))).graph
        assert _outerplane_case(G) is None
        fake = AlternatingCycleReport((0,), PROPER, frozenset())
        monkeypatch.setattr(verify, "all_alternating_cycles", lambda G, M: [fake])
        assert _outerplane_case(G) == (
            "root matching has a proper alternating cycle"
        )

    @pytest.mark.parametrize(
        "exc, witness",
        [
            (NotOuterplane("boom"), "NotOuterplane: boom"),
            (AssertionError("boom"), "assertion: boom"),
        ],
    )
    def test_outerplane_suite_names_the_failing_orientation(
        self, monkeypatch, exc, witness
    ):
        from matchlat import verify

        calls = []

        def case(G):
            calls.append(G)
            if len(calls) == 3:  # n=2, its second orientation
                raise exc

        monkeypatch.setattr(verify, "MAX_TREE_NODES", 2)
        monkeypatch.setattr(verify, "_outerplane_case", case)
        report = VerificationReport(suite="outerplane")
        check_outerplane(report, DEFAULT_CAPS)
        assert [(c.claim_id, c.witness) for c in report.checks] == [
            ("outerplane tree n=1 shape 0", None),
            (
                "outerplane tree n=2 shape 0",
                f"1/2 orientations failed: ((2, 1),): {witness}",
            ),
        ]

    def test_boundary_alternating_for_elementary(self, pyrene):
        # the outer boundary is proper for the source, improper for the root
        G = pyrene.graph
        ext = extremal_matchings(G)
        boundary = frozenset(
            eid for eid in range(G.n_edges) if G.outer_face in G.edge_faces(eid)
        )
        assert cycle_report(G, ext.source, boundary).orientation_class == PROPER
        assert cycle_report(G, ext.root, boundary).orientation_class == IMPROPER

    def test_pendant_multiple_extremes(self, pendant):
        with pytest.raises((MultipleSources, MultipleSinks)):
            extremal_matchings(pendant)


class TestDeltaAndPaths:
    def test_delta_zero_on_equal(self, c6):
        m1, _ = enumerate_perfect_matchings(c6)
        assert _delta_counts(c6, m1, m1) == {}

    def test_c6_delta_one(self, c6):
        ext = extremal_matchings(c6)
        f = c6.inner_face_ids[0]
        assert _delta_counts(c6, ext.source, ext.root) == {f: 1}

    def test_extremes_enclose_every_face(self, pyrene):
        G = pyrene.graph
        ext = extremal_matchings(G)
        deltas = _delta_counts(G, ext.source, ext.root)
        assert set(deltas) == set(G.inner_face_ids)
        assert min(deltas.values()) >= 1

    def test_path_multiplicity_matches_delta(self, pyrene):
        G = pyrene.graph
        P = matching_poset(G)
        ext = extremal_matchings(G)
        paths = directed_paths(G, ext.source_index, ext.root_index)
        assert paths
        every_face_once = dict.fromkeys(G.inner_face_ids, 1)
        for path in paths:
            assert _path_face_counts(G, path) == every_face_once
        assert _delta_counts(G, ext.source, ext.root) == every_face_once

    def test_negative_count_is_a_bug(self, c6, monkeypatch):
        from matchlat import ztransform

        ext = extremal_matchings(c6)
        f = c6.inner_face_ids[0]
        improper = AlternatingCycleReport((0,), IMPROPER, frozenset({f}))
        monkeypatch.setattr(ztransform, "_difference_cycles", lambda G, M, M2: [improper])
        with pytest.raises(
            AssertionError, match="signed enclosure count went negative under the order"
        ):
            _delta_counts(c6, ext.source, ext.root)

    def test_invariance_check_decomposes_each_pair_once(self, monkeypatch):
        from matchlat import verify, ztransform

        calls = {"pairs": 0, "paths": 0}
        difference_cycles = ztransform._difference_cycles
        path_face_counts = verify._path_face_counts

        def per_pair(G, M, M2):
            calls["pairs"] += 1
            return difference_cycles(G, M, M2)

        def per_path(G, nodes):
            calls["paths"] += 1
            return path_face_counts(G, nodes)

        monkeypatch.setattr(ztransform, "_difference_cycles", per_pair)
        monkeypatch.setattr(verify, "_path_face_counts", per_path)
        report = VerificationReport(suite="core")
        check_delta_path_invariance(report, DEFAULT_CAPS)
        assert report.passed and report.n_pass == 9
        assert calls == {"pairs": 313, "paths": 1074}

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

    @pytest.mark.parametrize("start, end", [(-1, 0), (0, 99), (99, 0), (0, -1), (6, 0), (0, 6)])
    def test_directed_paths_refuse_unknown_indices(self, start, end):
        G = parse_spec("P(2,2)").graph
        assert len(enumerate_perfect_matchings(G)) == 6
        with pytest.raises(NotAPath, match="unknown matching"):
            directed_paths(G, start, end)

    def test_directed_paths_leave_no_cyclic_garbage(self, t2):
        """The paths are freed by reference counting alone, not by a later
        pass of the cyclic collector that may come long after a large list."""
        G = t2.graph
        ext = extremal_matchings(G)
        s, r = ext.source_index, ext.root_index
        directed_paths(G, s, r)  # memoises the digraph
        gc.collect()
        gc.disable()
        try:
            directed_paths(G, s, r)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_find_e_cuts_leaves_no_cyclic_garbage(self):
        """The search frees its paths by reference counting alone."""
        G = parse_spec("tree:1>2,3>2,3>4,5>4").graph
        find_e_cuts(G)  # memoises what the graph derives
        gc.collect()
        gc.disable()
        try:
            find_e_cuts(G)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_empty_path(self, c6):
        assert _path_face_counts(c6, [0]) == {}

    def test_not_a_path(self, c6):
        ext = extremal_matchings(c6)
        with pytest.raises(NotAPath, match="no arc between consecutive matchings"):
            _path_face_counts(c6, [ext.root_index, ext.source_index])


class TestFacePoset:
    def test_directed_cycle_is_reported(self, monkeypatch):
        from matchlat import ztransform
        from matchlat.plane_graph import DualArc, DualDigraph

        G = tree_to_outerplane(OrientedTree((1, 2), ((1, 2),))).graph
        f, g = G.inner_face_ids
        cyclic = DualDigraph(
            nodes=(f, g),
            arcs=(DualArc(f, g, 0), DualArc(g, f, 1)),
        )
        monkeypatch.setattr(ztransform, "oriented_dual", lambda G, include_outer: cyclic)
        with pytest.raises(DirectedCycleInInnerDual):
            face_poset_outerplane(G)

    def test_dual_arcs_are_the_covers_of_their_closure(self):
        count = 0
        for G in outerplane_suite_hosts():
            count += 1
            dual = oriented_dual(G, include_outer=False)
            pos = {f: i for i, f in enumerate(dual.nodes)}
            closed = poset_from_relation(
                dual.nodes, [(pos[a.dst], pos[a.src]) for a in dual.arcs]
            )
            F = face_poset_outerplane(G)
            assert (F.labels, F.covers) == (closed.labels, closed.covers)
        assert count == 263

    def test_no_transitive_closure(self, monkeypatch):
        from matchlat import lattice, ztransform

        def refuse(*args):
            raise AssertionError("poset_from_relation called")

        monkeypatch.setattr(lattice, "poset_from_relation", refuse)
        monkeypatch.setattr(ztransform, "poset_from_relation", refuse, raising=False)
        tree = OrientedTree((1, 2, 3, 4), ((1, 2), (3, 2), (3, 4)))
        F = face_poset_outerplane(tree_to_outerplane(tree).graph)
        assert (F.n, len(F.covers)) == (4, 3)

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

    def test_non_matching_is_refused(self, t2):
        with pytest.raises(NotAMatching, match=r"\(0,\)\) is not a perfect matching"):
            sigma(t2.graph, Matching((0,)))

    def test_enumerated_matchings_are_not_checked_again(self, t2, monkeypatch):
        """sigma finds M among the enumerated matchings, which the flip
        digraph's build checked, and does not check it again."""
        from matchlat import matching

        G = t2.graph
        ext = extremal_matchings(G)

        def refuse(G, M):
            raise AssertionError("check_matching called")

        monkeypatch.setattr(matching, "check_matching", refuse)
        with pytest.raises(AssertionError, match="check_matching called"):
            matching.classify_alternating_faces(G, ext.source)
        ideals = {sigma(G, M) for M in enumerate_perfect_matchings(G)}
        assert len(ideals) == 5

    def test_union_of_the_difference_interiors(self, monkeypatch):
        """On every host the outerplane suite builds, one parity test on the
        whole difference gives the union of its classified cycles'
        interiors, and sigma classifies no cycle."""
        from matchlat import matching, plane_graph

        calls = []
        clockwise = plane_graph._clockwise

        def counted(G, mask, steps):
            calls.append(mask)
            return clockwise(G, mask, steps)

        for module in (plane_graph, matching):
            monkeypatch.setattr(module, "_clockwise", counted)
        hosts = 0
        for G in outerplane_suite_hosts():
            hosts += 1
            root = extremal_matchings(G).root
            ms = enumerate_perfect_matchings(G)
            want = [
                frozenset().union(
                    *(r.enclosed_faces for r in _difference_cycles(G, M, root))
                )
                for M in ms
            ]
            classified = len(calls)
            assert [sigma(G, M) for M in ms] == want
            assert len(calls) == classified
        assert hosts == 263


class TestIdealIso:
    def test_hexagon(self, c6):
        cert = verify_iso_matchings_ideals(c6)
        assert len(cert.ideal_of) == 2

    def test_t2_five_elements(self, t2):
        cert = verify_iso_matchings_ideals(t2.graph)
        assert len(cert.ideal_of) == 5

    def test_swapped_images_give_a_cover_witness(self, t2):
        G = t2.graph
        P = matching_poset(G)
        images = list(verify_iso_matchings_ideals(G).ideal_of)
        ext = extremal_matchings(G)
        s, r = ext.source_index, ext.root_index
        images[s], images[r] = images[r], images[s]
        with pytest.raises(IsoFailure, match="does not map to a cover") as exc:
            certify_ideal_map(P, images, face_poset_outerplane(G))
        # every cover away from the two swapped matchings still maps to a cover
        witness = str(exc.value)
        assert repr(P.labels[s]) in witness or repr(P.labels[r]) in witness

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
        dec = irreducible_decomposition(L)
        assert sorted(F.n for F in dec.factors) == [2, 2, 3]
        assert len(central_elements(L)) == 3


def lattice_route(G):
    """``analyze decompose``'s answer from the whole lattice, or the
    error that route raises."""
    try:
        L = matching_lattice(G)
        dec = irreducible_decomposition(L)
    except MatchlatError as exc:
        return exc
    return (
        L.n,
        [F.n for F in dec.factors] or [1],
        [list(map(int, dec.product_iso[x])) for x in central_elements(L)],
    )


class TestDecompositionByComponents:
    def test_agrees_with_the_lattice_route(self):
        """On every host it answers, the theorem route gives the lattice
        route's size, factors and central rows, in the same order; every
        host it declines is one the lattice route refuses."""
        answered = multi = unique = 0
        refusals = set()
        for G in decomposition_hosts():
            got, want = decomposition_by_components(G), lattice_route(G)
            if got is None:
                assert isinstance(want, MatchlatError), want
                refusals.add(type(want))
            else:
                assert got == want
                answered += 1
                multi += len(got[1]) > 1
                unique += got[1] == [1]
        assert answered > 800 and multi > 200 and unique > 0
        assert refusals == {NotALattice, NoPerfectMatching}

    @pytest.mark.parametrize("caps, message", [
        (SizeCaps(max_matchings=5), "more than 5 matchings"),
        (SizeCaps(max_vertices=15), "16 vertices exceeds cap 15"),
    ])
    def test_caps_bind_as_in_the_enumeration(self, caps, message):
        G = replace(parse_spec("P(2,2)").graph, caps=caps)
        for route in (decomposition_by_components, enumerate_perfect_matchings):
            with pytest.raises(SizeCapExceeded, match=f"^{message}$"):
                route(G)


def test_derived_data_dies_with_its_graph():
    G = load_graph(c6_description())
    for derive in (enumerate_perfect_matchings, matching_index, build_z_digraph,
                   matching_poset, matching_lattice, extremal_matchings,
                   face_poset_outerplane):
        assert derive(G) is derive(G)
    L = matching_lattice(G)
    assert irreducible_decomposition(L) is irreducible_decomposition(L)
    refs = [weakref.ref(G), weakref.ref(L)]
    del G, L
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


@pytest.mark.parametrize("linked", [False, True], ids=["irreducible", "linked"])
def test_decomposition_leaves_no_cyclic_garbage(linked):
    """With the cyclic collector off, G and L die by reference counts alone:
    no factor of the decomposition memoised on L may be L itself."""
    gc.collect()
    gc.disable()
    try:
        G = load_graph(c6_description())
        if linked:
            G = link_components([G, parse_spec("P(2,1)").graph]).graph
        L = matching_lattice(G)
        assert len(irreducible_decomposition(L).factors) == 1 + linked
        assert len(central_elements(L)) == 2 * linked
        assert L.join(L.bottom, L.top) == L.top  # caches the dual lattice too
        refs = [weakref.ref(G), weakref.ref(L)]
        del G, L
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
