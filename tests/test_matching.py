import itertools

import pytest
from hypothesis import given, settings, strategies as st

from matchlat import (
    Matching,
    all_alternating_cycles,
    classify_alternating_faces,
    enumerate_perfect_matchings,
    forcing_edges,
    link_components,
    symmetric_difference_cycles,
    truncated_parallelogram,
)
from matchlat.errors import NotAMatching, SizeCapExceeded
from matchlat.generators import TruncatedParallelogramSpec, parallelogram_spec
from matchlat.matching import (
    IMPROPER,
    PROPER,
    _cycles_of_edge_set,
    _enumerate_on_edges,
    _search_tree,
    classify_cycle,
)
from matchlat.oracles import alternating_cycles_dfs, count_matchings_bruteforce
from matchlat.ztransform import extremal_matchings


class TestEnumeration:
    def test_c6_two_matchings(self, c6):
        ms = enumerate_perfect_matchings(c6)
        assert len(ms) == 2
        assert ms == tuple(sorted(ms))

    @pytest.mark.parametrize(
        "rows,count",
        [((1,), 2), ((1, 1), 3), ((2, 2), 6), ((2, 1), 5), ((3, 3, 3), 20)],
    )
    def test_counts(self, rows, count):
        G = truncated_parallelogram(TruncatedParallelogramSpec(rows)).graph
        assert len(enumerate_perfect_matchings(G)) == count

    def test_oracle_agreement(self, c6, ladder, pendant, t2, pyrene):
        for G in (c6, ladder, pendant, t2.graph, pyrene.graph):
            assert len(enumerate_perfect_matchings(G)) == count_matchings_bruteforce(G)

    def test_deterministic(self, pyrene):
        a = enumerate_perfect_matchings(pyrene.graph)
        b = tuple(
            Matching(t.edge_ids) for t in enumerate_perfect_matchings(pyrene.graph)
        )
        assert a == b

    def test_no_matching_is_empty(self):
        from matchlat import load_graph

        # path on 3 vertices: no perfect matching
        G = load_graph(
            {
                "vertices": [
                    {"id": 0, "color": "white"},
                    {"id": 1, "color": "black"},
                    {"id": 2, "color": "white"},
                ],
                "edges": [[0, 1], [1, 2]],
                "rotation": {"0": [0], "1": [0, 1], "2": [1]},
            }
        )
        assert enumerate_perfect_matchings(G) == ()


@st.composite
def abstract_graphs(draw, max_n=12, max_m=20):
    """A vertex count and an edge list on it: no loops, parallel edges allowed.

    A quarter of the draws have an odd vertex count; three quarters of the
    even ones plant a perfect matching among the edges, so that most
    graphs have some.
    """
    odd = draw(st.integers(0, 3)) == 0
    n = min(max_n, 2 * draw(st.integers(0, max_n // 2)) + odd)
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    edges = []
    if n % 2 == 0 and draw(st.integers(0, 3)):
        order = draw(st.permutations(range(n)))
        edges = list(zip(order[0::2], order[1::2]))
    edges += draw(st.lists(pair, max_size=max_m - len(edges)))
    return n, draw(st.permutations(edges))


def matchings_bruteforce(n, edges):
    """Every choice of n // 2 edges that covers all n vertices, in sorted order."""
    return [
        subset
        for subset in itertools.combinations(range(len(edges)), n // 2)
        if len({v for e in subset for v in edges[e]}) == n
    ]


def search_tree_reference(n, edges):
    """The leaves of the branch-and-prune search, recursively and by rescans.

    Each node scans every vertex: the first uncovered one with the fewest
    uncovered neighbours is the branch vertex, a vertex with one ends the
    scan and a vertex with none prunes the node; the children follow the
    branch vertex's incident edges in input order.
    """
    incident = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        incident[u].append((eid, v))
        incident[v].append((eid, u))
    leaves = []

    def rec(covered, chosen):
        if len(covered) == n:
            leaves.append(tuple(sorted(chosen)))
            return
        best_v, best = None, None
        for v in range(n):
            if v in covered:
                continue
            options = len({u for _, u in incident[v] if u not in covered})
            if options == 0:
                return
            if best is None or options < best:
                best_v, best = v, options
                if options == 1:
                    break
        for eid, u in incident[best_v]:
            if u not in covered:
                rec(covered | {best_v, u}, chosen + [eid])

    rec(frozenset(), [])
    return leaves


class TestEnumerateOnEdges:
    @given(abstract_graphs())
    @settings(max_examples=150, deadline=None)
    def test_equals_bruteforce(self, graph):
        n, edges = graph
        assert _enumerate_on_edges(n, edges, 10**9) == matchings_bruteforce(n, edges)

    @given(abstract_graphs())
    @settings(max_examples=150, deadline=None)
    def test_search_tree_is_the_rescanning_tree(self, graph):
        n, edges = graph
        assert list(_search_tree(n, edges)) == search_tree_reference(n, edges)

    def test_deep_path_has_one_matching(self):
        # 2,000 matched edges: far deeper than the interpreter's recursion limit
        n = 4000
        edges = [(v, v + 1) for v in range(n - 1)]
        assert _enumerate_on_edges(n, edges, 10) == [tuple(range(0, n - 1, 2))]

    def test_cap_boundary(self):
        # P(3,3) has 20 perfect matchings
        # building the graph enumerates too, so it is built once with default caps
        G = truncated_parallelogram(parallelogram_spec(3, 3)).graph
        assert len(_enumerate_on_edges(G.n_vertices, G.edges, 20)) == 20
        with pytest.raises(SizeCapExceeded, match="more than 19 matchings"):
            _enumerate_on_edges(G.n_vertices, G.edges, 19)


class TestAlternatingFaces:
    def test_c6_one_proper_one_improper(self, c6):
        m1, m2 = enumerate_perfect_matchings(c6)
        tags = {}
        for M in (m1, m2):
            out = classify_alternating_faces(c6, M)
            assert len(out) == 1
            tags[M] = out[0][1]
        assert sorted(tags.values()) == [IMPROPER, PROPER]

    def test_root_has_no_proper_face(self, naphthalene):
        root = naphthalene.root_matching()
        tags = classify_alternating_faces(naphthalene.graph, root)
        assert all(cls == IMPROPER for _, cls in tags)
        assert any(cls == IMPROPER for _, cls in tags)

    def test_source_has_no_improper_face(self, naphthalene):
        ext = extremal_matchings(naphthalene.graph)
        tags = classify_alternating_faces(naphthalene.graph, ext.source)
        assert all(cls == PROPER for _, cls in tags)

    def test_rejects_non_matching(self, c6):
        with pytest.raises(NotAMatching):
            classify_alternating_faces(c6, Matching((0, 1, 2)))

    def test_flip_changes_class(self, pyrene):
        G = pyrene.graph
        for M in enumerate_perfect_matchings(G):
            for fid, cls in classify_alternating_faces(G, M):
                M2 = M.flip(G.faces[fid].edge_set)
                tags2 = dict(classify_alternating_faces(G, M2))
                assert tags2[fid] != cls


class TestSymmetricDifference:
    def test_identity_empty(self, c6):
        m1, _ = enumerate_perfect_matchings(c6)
        assert symmetric_difference_cycles(c6, m1, m1) == []

    def test_c6_single_cycle(self, c6):
        m1, m2 = enumerate_perfect_matchings(c6)
        reports = symmetric_difference_cycles(c6, m1, m2)
        assert len(reports) == 1
        assert reports[0].edge_set == frozenset(range(6))
        assert reports[0].enclosed_faces == frozenset(c6.inner_face_ids)

    def test_pyrene_extremes_give_boundary(self, pyrene):
        G = pyrene.graph
        ext = extremal_matchings(G)
        reports = symmetric_difference_cycles(G, ext.source, ext.root)
        assert len(reports) == 1
        assert reports[0].orientation_class == PROPER
        assert reports[0].enclosed_faces == frozenset(G.inner_face_ids)

    def test_involution(self, t2):
        G = t2.graph
        ms = enumerate_perfect_matchings(G)
        for M1 in ms:
            for M2 in ms:
                for rep in symmetric_difference_cycles(G, M1, M2):
                    assert M1.flip(rep.edge_set).flip(rep.edge_set) == M1

    def test_cycle_is_canonical_sequence(self, t2, pyrene):
        for G in (t2.graph, pyrene.graph):
            ms = enumerate_perfect_matchings(G)
            for M1 in ms:
                for M2 in ms:
                    for rep in symmetric_difference_cycles(G, M1, M2):
                        cyc = rep.cycle
                        assert cyc[0] == min(rep.edge_set)
                        assert cyc[1] < cyc[-1]
                        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                            assert set(G.edges[a]) & set(G.edges[b])
                        assert sorted(cyc) == sorted(rep.edge_set)
                        assert classify_cycle(G, M1, reversed(cyc)) == rep


    def test_cycles_of_edge_set_split(self, t2, pyrene):
        for G in (t2.graph, pyrene.graph):
            ms = enumerate_perfect_matchings(G)
            for M1, M2 in itertools.combinations(ms, 2):
                diff = M1.edge_set ^ M2.edge_set
                cycles = _cycles_of_edge_set(G, diff)
                assert [min(c) for c in cycles] == sorted(min(c) for c in cycles)
                assert sum(len(c) for c in cycles) == len(diff)
                assert frozenset().union(*cycles) == diff
                reps = symmetric_difference_cycles(G, M1, M2)
                assert cycles == [rep.edge_set for rep in reps]

    def test_cycles_of_edge_set_refuses_a_path(self, c6):
        with pytest.raises(NotAMatching):
            _cycles_of_edge_set(c6, frozenset(range(5)))


class TestForcingEdges:
    def test_c6_all_forcing(self, c6):
        assert forcing_edges(c6) == frozenset(range(6))

    def test_pyrene_nonempty_and_designated(self, pyrene):
        fe = forcing_edges(pyrene.graph)
        assert fe
        assert pyrene.forcing_edge in fe

    def test_link_edge_not_forcing(self, hexagon_gen):
        linked = link_components([hexagon_gen.graph, hexagon_gen.graph])
        fe = forcing_edges(linked.graph)
        assert not (fe & frozenset(linked.new_edges))


class TestAllAlternatingCycles:
    def test_c6(self, c6):
        for M in enumerate_perfect_matchings(c6):
            assert len(all_alternating_cycles(c6, M)) == 1

    def test_bijection_with_matchings_on_root(self):
        for rows in [(1, 1), (2, 1), (2, 2)]:
            H = truncated_parallelogram(TruncatedParallelogramSpec(rows))
            G = H.graph
            root = H.root_matching()
            cycles = all_alternating_cycles(G, root)
            assert len(cycles) == len(enumerate_perfect_matchings(G)) - 1
            # every root-alternating cycle passes through the forcing edge
            for rep in cycles:
                assert H.forcing_edge in rep.edge_set

    def test_dfs_oracle(self, c6, ladder, t2):
        for G in (c6, ladder, t2.graph):
            for M in enumerate_perfect_matchings(G):
                got = {r.edge_set for r in all_alternating_cycles(G, M)}
                assert got == alternating_cycles_dfs(G, M)
