import gc
import itertools
from math import comb, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from matchlat import (
    Matching,
    all_alternating_cycles,
    classify_alternating_faces,
    enumerate_perfect_matchings,
    forcing_edges,
    link_components,
    parse_spec,
    symmetric_difference_cycles,
    truncated_parallelogram,
)
from matchlat import generators, matching, plane_graph
from matchlat.caps import DEFAULT_CAPS, SizeCaps
from matchlat.errors import Disconnected, NotACycle, NotAMatching, SizeCapExceeded
from matchlat.generators import (
    TruncatedParallelogramSpec,
    parallelogram_spec,
    prolate_triangle_spec,
)
from matchlat.lattice import grid_poset, order_ideal_lattice
from matchlat.matching import (
    IMPROPER,
    PROPER,
    AlternatingCycleReport,
    _abs_det,
    _enumerate_on_edges,
    _search_tree,
    classify_cycle,
    kasteleyn_count,
    matching_index,
)
from matchlat.oracles import (
    alternating_cycles_dfs,
    count_matchings_bruteforce,
    faces_inside_cycle_by_flood,
)
from matchlat.plane_graph import (
    WHITE,
    _split_cycles,
    clockwise_cycle,
    elementary_structure,
    faces_inside_cycle,
    is_elementary,
)
from matchlat.verify import _all_profiles, _saturated_chains, _small_fixtures
from matchlat.ztransform import build_z_digraph, extremal_matchings, matching_poset

from conftest import (
    cycle_oracle_hosts,
    edited_hosts,
    fence,
    nested_squares,
    outerplane_suite_hosts,
    reference_arcs,
    without_edges,
)


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
                split = list(_split_cycles(G, diff))
                cycles = [frozenset(eid for eid, _, _ in steps) for _, steps in split]
                top = G.n_edges - 1
                assert [mask for mask, _ in split] == [
                    sum(1 << top - e for e in c) for c in cycles
                ]
                assert [min(c) for c in cycles] == sorted(min(c) for c in cycles)
                assert sum(len(c) for c in cycles) == len(diff)
                assert frozenset().union(*cycles) == diff
                reps = symmetric_difference_cycles(G, M1, M2)
                assert cycles == [rep.edge_set for rep in reps]

    def test_each_walk_starts_at_its_lowest_edge(self):
        for _, G in _small_fixtures(DEFAULT_CAPS):
            ms = enumerate_perfect_matchings(G)
            for M1, M2 in itertools.combinations(ms, 2):
                for mask, steps in _split_cycles(G, M1.edge_set ^ M2.edge_set):
                    # the lowest edge is the highest bit
                    assert steps[0][0] == G.n_edges - mask.bit_length()

    def test_cycles_of_edge_set_refuses_a_path(self, c6):
        with pytest.raises(NotACycle, match="edge set is not 2-regular"):
            _split_cycles(c6, frozenset(range(5)))
        assert list(_split_cycles(c6, frozenset())) == []

    def test_classify_cycle_refuses_what_is_no_alternating_cycle(self):
        G = parse_spec("P(1,1)").graph
        with pytest.raises(NotAMatching):
            classify_cycle(G, Matching((0,)), G.faces[G.inner_face_ids[0]].edge_ids)
        # every inner face of P(2,2) against every matching: the faces
        # classify_alternating_faces tags classify alike, the rest are refused
        G = parse_spec("P(2,2)").graph
        refused = 0
        for M in enumerate_perfect_matchings(G):
            tags = dict(classify_alternating_faces(G, M))
            for fid in G.inner_face_ids:
                cycle = G.faces[fid].edge_ids
                if fid in tags:
                    assert classify_cycle(G, M, cycle).orientation_class == tags[fid]
                else:
                    refused += 1
                    with pytest.raises(NotACycle, match="not M-alternating"):
                        classify_cycle(G, M, cycle)
        assert refused


def cycle_sets(G, edge_ids):
    """The cycles of a 2-regular edge set, as edge-id sets."""
    return [frozenset(eid for eid, _, _ in steps) for _, steps in _split_cycles(G, edge_ids)]


def classify_cycle_by_flood(G, M, cycle):
    """Reference for ``classify_cycle``: each edge's clockwise step is that
    of the one face walk inside the flooded interior, and the sequence is
    chained along those steps from the smallest edge toward its smaller-id
    neighbour."""
    inside = faces_inside_cycle_by_flood(G, cycle)
    steps = {}
    for eid in cycle:
        (steps[eid],) = [(t, h) for f, t, h in G.edge_traversals[eid] if f in inside]
    leaving = {tail: eid for eid, (tail, _) in steps.items()}
    arriving = {head: eid for eid, (_, head) in steps.items()}
    seq = [min(cycle)]
    forward = leaving[steps[seq[0]][1]] < arriving[steps[seq[0]][0]]
    while True:
        tail, head = steps[seq[-1]]
        nxt = leaving[head] if forward else arriving[tail]
        if nxt == seq[0]:
            break
        seq.append(nxt)
    (cls,) = {
        PROPER if G.colors[steps[eid][0]] == WHITE else IMPROPER
        for eid in cycle & M.edge_set
    }
    return AlternatingCycleReport(tuple(seq), cls, inside)


class TestCycleRoutesAgainstFlood:
    """Walks and Jordan parity against the flood oracle, on every cycle of
    every symmetric difference of two matchings."""

    def test_difference_cycles(self):
        for G in cycle_oracle_hosts():
            ms = enumerate_perfect_matchings(G)
            for M1, M2 in itertools.permutations(ms, 2):
                for cyc in cycle_sets(G, M1.edge_set ^ M2.edge_set):
                    inside = faces_inside_cycle_by_flood(G, cyc)
                    assert faces_inside_cycle(G, cyc) == inside
                    rep = classify_cycle(G, M1, cyc)
                    assert rep == classify_cycle_by_flood(G, M1, cyc)
                    assert rep.enclosed_faces == inside

    def test_split_orders_several_cycles_by_smallest_edge(self):
        several = 0
        for G in cycle_oracle_hosts():
            ms = enumerate_perfect_matchings(G)
            for M1, M2 in itertools.combinations(ms, 2):
                diff = M1.edge_set ^ M2.edge_set
                cycles = cycle_sets(G, diff)
                if len(cycles) < 2:
                    continue
                several += 1
                assert [min(c) for c in cycles] == sorted(min(c) for c in cycles)
                assert frozenset().union(*cycles) == diff
                assert sum(map(len, cycles)) == len(diff)
                for c in cycles:
                    steps, _ = clockwise_cycle(G, c)
                    assert {eid for eid, _, _ in steps} == c
        assert several > 0


class TestOneWalkPerCycle:
    """The splitter's walk of each cycle is the one its classification
    reads: no cycle is checked and walked a second time."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        walk = plane_graph.walk_cycle

        def counted(G, mask):
            calls.append(mask)
            return walk(G, mask)

        for module in (plane_graph, matching, generators):
            if vars(module).get("walk_cycle") is walk:
                monkeypatch.setattr(module, "walk_cycle", counted)
        return calls

    def test_symmetric_difference_cycles(self, walks, t2, pyrene):
        for G in (t2.graph, pyrene.graph):
            ms = enumerate_perfect_matchings(G)
            for M1, M2 in itertools.permutations(ms, 2):
                walks.clear()
                reports = symmetric_difference_cycles(G, M1, M2)
                assert len(walks) == len(reports) > 0

    def test_all_alternating_cycles(self, walks, t2, pyrene):
        """One walk per other matching: the first cycle of each difference."""
        for G in (t2.graph, pyrene.graph):
            ms = enumerate_perfect_matchings(G)
            for M in ms:
                walks.clear()
                assert all_alternating_cycles(G, M)
                assert len(walks) == len(ms) - 1

    def test_matching_geometry(self, walks, pyrene):
        root = pyrene.root_matching()
        for M in enumerate_perfect_matchings(pyrene.graph):
            walks.clear()
            generators.matching_geometry(pyrene, M)
            assert len(walks) == (M != root)


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

    def test_only_the_given_matching_is_checked(self, monkeypatch, t2, pyrene):
        """Differences with the certified matchings are walked as they
        stand, never checked again by the splitter; M itself is checked."""

        def refuse(G, edge_ids):
            raise AssertionError("_split_cycles called")

        monkeypatch.setattr(matching, "_split_cycles", refuse)
        for G in (t2.graph, pyrene.graph):
            for M in enumerate_perfect_matchings(G):
                assert all_alternating_cycles(G, M)
        with pytest.raises(NotAMatching):
            all_alternating_cycles(t2.graph, Matching((0,)))

    def test_dfs_oracle_on_outerplane_suite_extremes(self):
        """The extremes' certificate reads these cycles: one walk per
        difference finds the same ones as the DFS oracle."""
        for G in outerplane_suite_hosts():
            ext = extremal_matchings(G)
            for M in (ext.source, ext.root):
                got = {r.edge_set for r in all_alternating_cycles(G, M)}
                assert got == alternating_cycles_dfs(G, M)


def branch_route(G):
    return _enumerate_on_edges(G.n_vertices, G.edges, 10**9)


EDITED_HOSTS = edited_hosts()


class TestKasteleyn:
    def test_parallelograms_are_binomial(self):
        caps = SizeCaps(max_vertices=300, max_inner_faces=100)
        for m in range(1, 11):
            for n in range(m, 11):
                G = truncated_parallelogram(parallelogram_spec(m, n), caps).graph
                assert kasteleyn_count(G) == comb(m + n, m), (m, n)

    def test_staircases_are_catalan(self):
        caps = SizeCaps(max_vertices=300, max_inner_faces=100)
        for m in range(1, 9):
            G = truncated_parallelogram(prolate_triangle_spec(m), caps).graph
            assert kasteleyn_count(G) == comb(2 * m + 2, m + 1) // (m + 2)

    def test_fences_are_fibonacci(self):
        caps = SizeCaps(max_vertices=200, max_inner_faces=30)
        fib = [0, 1]
        while len(fib) < 33:
            fib.append(fib[-1] + fib[-2])
        for k in range(1, 31):
            assert kasteleyn_count(parse_spec(fence(k), caps).graph) == fib[k + 2]

    def test_small_hosts_agree_with_brute_force(self):
        for G in cycle_oracle_hosts():
            count = kasteleyn_count(G)
            simple = all(G.faces[f].is_simple_cycle for f in G.inner_face_ids)
            assert (count is None) == (not simple)
            if simple:
                assert count == count_matchings_bruteforce(G)

    @given(st.integers(0, 6).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-3, 3) | st.just(0), min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.permutations(range(n)),
    )))
    @settings(max_examples=200, deadline=None)
    def test_sparse_determinant_is_the_permutation_expansion(self, case):
        matrix, columns = case
        n = len(matrix)
        expansion = sum(
            (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
            * prod(matrix[i][p[i]] for i in range(n))
            for p in itertools.permutations(range(n))
        )
        rows = {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(matrix)}
        assert _abs_det(rows, columns) == abs(expansion)


def assert_walk_matches_the_references(H):
    """The walk's arcs are those of the per-matching route, and each flip
    component has one bottom and one top."""
    assert build_z_digraph(H).arcs == reference_arcs(H)
    P = matching_poset(H)
    for comp in P.components:
        assert sum(not P.down_covers[x] for x in comp) == 1
        assert sum(not P.up_covers[x] for x in comp) == 1


def key_sorted_arcs(G):
    """The per-matching route's arcs, each packed into one int as
    (upper * n + lower) * faces + face, sorted as ints and unpacked: the
    walk's arc table is this order with no sort."""
    index = matching_index(G)
    n, nf = len(index), len(G.faces)
    keys = sorted(
        (i * n + index[M.flip(G.faces[fid].edge_set)]) * nf + fid
        for M, i in index.items()
        for fid, cls in classify_alternating_faces(G, M)
        if cls == PROPER
    )
    return tuple(x for k in keys for x in (k // nf // n, k // nf % n, k % nf))


def assert_table_is_the_key_sort(G):
    table = build_z_digraph(G).arc_table
    assert table == key_sorted_arcs(G)
    pairs = list(zip(table[0::3], table[1::3]))
    assert all(a < b for a, b in zip(pairs, pairs[1:]))


def walk_order_hosts():
    """The edited hosts (``nested_squares`` has two flip components), the
    verify suite's small fixtures and the fences on 1 to 12 nodes."""
    return (
        EDITED_HOSTS
        + [G for _, G in _small_fixtures(DEFAULT_CAPS)]
        + [parse_spec(fence(k)).graph for k in range(1, 13)]
    )


class TestWalkOrder:
    """The walk lists each matching's lower covers in canonical order
    because the faces proper at one matching share no edge."""

    @pytest.mark.parametrize("G", walk_order_hosts())
    def test_faces_of_one_class_share_no_edge(self, G):
        for M in enumerate_perfect_matchings(G):
            for cls in (PROPER, IMPROPER):
                faces = [G.faces[fid].edge_set
                         for fid, c in classify_alternating_faces(G, M) if c == cls]
                assert sum(map(len, faces)) == len(frozenset().union(*faces))

    @pytest.mark.parametrize("G", walk_order_hosts())
    def test_arc_table_is_the_global_key_sort(self, G):
        assert_table_is_the_key_sort(G)


class TestFlipRoute:
    @given(st.sampled_from(range(len(EDITED_HOSTS))), st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_branch_route_with_edges_deleted(self, k, data):
        G = EDITED_HOSTS[k]
        dropped = data.draw(st.sets(st.integers(0, G.n_edges - 1), min_size=1, max_size=3))
        try:
            H = without_edges(G, dropped)
        except (Disconnected, StopIteration):
            assume(False)
        branch = branch_route(H)
        assert kasteleyn_count(H) in (None, len(branch))
        assert [M.edge_ids for M in enumerate_perfect_matchings(H)] == branch
        if branch:
            assert_walk_matches_the_references(H)
            assert_table_is_the_key_sort(H)
            used = set().union(*branch)
            assert is_elementary(H, branch[0]) == (len(used) == H.n_edges)

    def test_a_short_walk_falls_back_to_the_branch_route(self, monkeypatch):
        G = nested_squares()
        assert all(G.faces[f].is_simple_cycle for f in G.inner_face_ids)
        assert kasteleyn_count(G) == 4
        starts = []
        climb = matching._climb

        def counted(m, *rest):
            starts.append(m)
            climb(m, *rest)

        monkeypatch.setattr(matching, "_climb", counted)
        assert [M.edge_ids for M in enumerate_perfect_matchings(G)] == branch_route(G)
        assert len(starts) == 2  # one walk per flip component
        assert_walk_matches_the_references(G)

    def test_is_elementary_agrees_with_enumeration(self):
        for G in cycle_oracle_hosts():
            ms = branch_route(G)
            if ms:
                want = elementary_structure(G, check_weak=False).is_elementary
                assert all(is_elementary(G, M) == want for M in ms)

    @pytest.mark.parametrize("host, count", [
        ("P(4,4)", 70), ("C6x8", 256), ("fence-16", 2584), ("P(1,200)", 201),
    ])
    def test_takes_at_most_one_search_leaf(self, monkeypatch, host, count):
        if host == "C6x8":
            G = link_components([parse_spec("L(1)").graph] * 8).graph
        elif host == "fence-16":
            G = parse_spec(fence(16)).graph
        else:
            G = parse_spec(host, SizeCaps(max_vertices=1000, max_inner_faces=200)).graph
        leaves = []
        search = matching._search_tree

        def counted(n, edges):
            for leaf in search(n, edges):
                leaves.append(leaf)
                yield leaf

        monkeypatch.setattr(matching, "_search_tree", counted)
        assert len(enumerate_perfect_matchings(G)) == count
        assert len(leaves) <= 1


@pytest.mark.parametrize("call", [
    lambda: count_matchings_bruteforce(parse_spec("P(2,2)").graph),
    lambda: alternating_cycles_dfs(
        G := parse_spec("P(2,2)").graph, enumerate_perfect_matchings(G)[0]
    ),
    lambda: _saturated_chains(L := order_ideal_lattice(grid_poset(2, 2))[0], L.top, 6),
    lambda: _all_profiles(4),
], ids=["count_matchings_bruteforce", "alternating_cycles_dfs",
        "_saturated_chains", "_all_profiles"])
def test_recursive_searches_leave_no_cyclic_garbage(call):
    """Each search runs over an explicit stack, so a call is freed by
    reference counting alone; a recursive closure is a reference cycle."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
