import gc
import itertools
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from matchlat import lattice as lattice_module, matching_lattice, parse_spec
from matchlat.caps import SizeCaps
from matchlat.errors import (
    ChainNotSaturated,
    NotALattice,
    NotComplementary,
    NotGraded,
    ParseError,
    ProductMismatch,
    SizeCapExceeded,
)
from matchlat.lattice import (
    FinitePoset,
    central_elements,
    chain_poset,
    complements,
    direct_product,
    grid_poset,
    grid_sublattice,
    ideal_iso_refusal,
    irreducible_decomposition,
    is_distributive,
    join_irreducibles,
    lattice_from_poset,
    lattice_isomorphic,
    order_ideal_lattice,
    order_iso_refusal,
    poset_from_relation,
    poset_isomorphic,
    rank_check,
    _lattice_by_pairs,
)
from matchlat.oracles import distributive_by_birkhoff, ideals_bruteforce


def chain(k):
    return lattice_from_poset(chain_poset(k))


def l_2x3():
    return direct_product(chain(2), chain(3))


@st.composite
def small_posets(draw, max_n=6, min_n=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((i, j))
    return poset_from_relation(tuple(range(n)), pairs)


def with_bottom(P):
    """P with a new least element "0"."""
    return poset_from_relation(
        ("0",) + P.labels,
        [(0, x + 1) for x in range(P.n)] + [(lo + 1, hi + 1) for lo, hi in P.covers],
    )


def with_bottom_and_top(P):
    """P with a new least element "0" and a new greatest element "1"."""
    n = P.n
    return poset_from_relation(
        ("0",) + P.labels + ("1",),
        [(0, x + 1) for x in range(n + 1)]
        + [(x + 1, n + 1) for x in range(n)]
        + [(x + 1, y + 1) for x in range(n) for y in range(n) if x != y and P.leq(x, y)],
    )


# N5: 0 < a < b < 1 beside 0 < c < 1, the smallest non-modular lattice
N5 = FinitePoset(tuple("0abc1"), ((0, 1), (1, 2), (2, 4), (0, 3), (3, 4)))
M3 = FinitePoset(tuple("0abc1"), ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)))
# the seven-element lattice 0 < a, b, c; a, b < ab; b, c < bc; ab, bc < 1:
# every cover adds one irreducible and the coordinates are injective, but
# {a, c} is an ideal of Irr that no element has
SEVEN = FinitePoset(
    ("0", "a", "b", "c", "ab", "bc", "1"),
    ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (2, 5), (3, 5), (4, 6), (5, 6)),
)


# the zigzag fence tree on 16 faces: a graded matching lattice of 2584 elements
FENCE_16 = "tree:" + ",".join(f"{k}>{k + 1}" if k % 2 else f"{k + 1}>{k}" for k in range(1, 16))


def pentagon():
    return lattice_from_poset(N5)


class TestLatticeFromPoset:
    def test_two_chain_is_boolean(self):
        L = chain(2)
        assert L.meet(0, 1) == L.bottom
        assert L.join(0, 1) == L.top

    def test_2x3_has_six_elements(self):
        L = l_2x3()
        assert L.n == 6
        assert rank_check(L)[L.top] == 3

    def test_two_incomparable_tops_not_a_lattice(self):
        P = FinitePoset(("a", "b", "c"), ((0, 1), (0, 2)))
        with pytest.raises(NotALattice, match="'b', 'c' have no join"):
            lattice_from_poset(P)

    @pytest.mark.parametrize(
        "labels, covers, message",
        [
            # two minimal elements under one top
            ("abc", ((0, 2), (1, 2)), "'a', 'b' have no meet"),
            # a bowtie between bottom and top: c, d share two maximal lower bounds
            ("cdab01", ((4, 2), (4, 3), (2, 0), (2, 1), (3, 0), (3, 1), (0, 5), (1, 5)),
             "'c', 'd' have no unique meet"),
            # a bowtie between bottom and top: a, b share two minimal upper bounds
            ("ab0cd1", ((2, 0), (2, 1), (0, 3), (0, 4), (1, 3), (1, 4), (3, 5), (4, 5)),
             "'a', 'b' have no unique join"),
            ("", (), "unique minimal and maximal"),
        ],
        ids=["no meet", "no unique meet", "no unique join", "empty"],
    )
    def test_witness_message(self, labels, covers, message):
        with pytest.raises(NotALattice, match=message):
            lattice_from_poset(FinitePoset(tuple(labels), covers))


def mask_lattice(P):
    """A reference lattice on P: meet and join looked up among the principal
    down-sets and up-sets, the bounds the pair loop certifies."""
    down, up = P.down_masks, P.up_masks
    by_down = {m: z for z, m in enumerate(down)}
    by_up = {m: w for w, m in enumerate(up)}
    (bottom,), (top,) = P.minimal_elements, P.maximal_elements
    return SimpleNamespace(
        n=P.n, bottom=bottom, top=top, leq=P.leq,
        meet=lambda x, y: by_down[down[x] & down[y]],
        join=lambda x, y: by_up[up[x] & up[y]],
    )


def assert_same_lattice(L1, L2):
    """Same bottom and top, and the same meet, join and order on all pairs."""
    assert (L1.n, L1.bottom, L1.top) == (L2.n, L2.bottom, L2.top)
    for x, y in itertools.product(range(L1.n), repeat=2):
        assert (L1.meet(x, y), L1.join(x, y)) == (L2.meet(x, y), L2.join(x, y))
        assert L1.leq(x, y) == L2.leq(x, y)


def assert_irreducibles_match_subposet(L):
    """join_irreducibles against the induced subposet, reduced from all pairs."""
    P, idx = join_irreducibles(L)
    Q = L.poset.subposet(idx)
    assert (P.labels, P.covers) == (Q.labels, Q.covers)
    assert idx == tuple(
        x for x in range(L.n) if x != L.bottom and len(L.poset.down_covers[x]) == 1
    )


class TestBirkhoffCertificate:
    @given(small_posets())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_pair_loop(self, P):
        Q = with_bottom_and_top(P)
        irr, D = Q.irreducible_coordinates
        below = [D[x] ^ 1 << k for k, x in enumerate(irr)]
        assert Q.birkhoff_refusal == refusal_by_rescans(Q, D, below)
        try:
            _lattice_by_pairs(Q)
        except NotALattice as exc:
            assert Q.birkhoff_refusal is not None
            with pytest.raises(NotALattice) as got:
                lattice_from_poset(Q)
            assert str(got.value) == str(exc)
            return
        L = lattice_from_poset(Q)
        assert_same_lattice(L, mask_lattice(Q))
        assert (Q.birkhoff_refusal is None) == is_distributive(L)[0]
        assert_irreducibles_match_subposet(L)

    @pytest.mark.parametrize("P", [N5, M3, SEVEN], ids=["N5", "M3", "seven"])
    def test_non_distributive_lattices_fall_back(self, P):
        assert P.birkhoff_refusal is not None
        L = lattice_from_poset(P)
        assert_same_lattice(L, mask_lattice(P))
        assert not is_distributive(L)[0]

    @pytest.mark.parametrize(
        "P, message",
        [
            (FinitePoset(tuple("abc"), ((0, 2), (1, 2))), "'a', 'b' have no meet"),
            (FinitePoset((), ()), "unique minimal and maximal"),
        ],
        ids=["two bottoms", "empty"],
    )
    def test_non_lattices_keep_their_witness(self, P, message):
        assert P.birkhoff_refusal is not None
        with pytest.raises(NotALattice, match=message):
            lattice_from_poset(P)

    def test_distributive_lattices_never_run_the_pair_loop(self, monkeypatch):
        def refuse(P):
            raise AssertionError("pair loop ran")

        monkeypatch.setattr(lattice_module, "_lattice_by_pairs", refuse)
        for spec, n in (("P(4,4)", 70), (FENCE_16, 2584)):
            assert matching_lattice(parse_spec(spec).graph).n == n
        assert order_ideal_lattice(grid_poset(3, 3))[0].n == 20
        assert direct_product(chain(3), chain(4)).n == 12
        with pytest.raises(AssertionError, match="pair loop ran"):
            lattice_from_poset(N5)

    def test_irreducibles_of_a_matching_lattice_match_subposet(self):
        assert_irreducibles_match_subposet(matching_lattice(parse_spec("P(4,4)").graph))

    def test_graded_lattices_build_no_reachability_masks(self):
        L = matching_lattice(parse_spec(FENCE_16).graph)
        assert len(irreducible_decomposition(L).factors) == 1
        assert central_elements(L) == ()
        mid = L.n // 2
        assert L.meet(L.bottom, mid) == L.bottom and L.join(mid, L.top) == L.top
        assert L.meet(mid, mid) == L.join(mid, mid) == mid
        assert L.leq(L.bottom, mid) and L.leq(mid, L.top) and not L.leq(L.top, mid)
        assert (L.rank[L.bottom], L.rank[L.top]) == (0, 16)
        assert "up_masks" not in vars(L.poset) and "down_masks" not in vars(L.poset)


@st.composite
def shuffled_dag_arcs(draw, max_n=7):
    """Arcs i -> j, i < j, over n nodes, relabelled by a permutation and shuffled."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    g = draw(st.permutations(range(n)))
    arcs = [(g[i], g[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    return n, draw(st.permutations(arcs))


class TestIrredundancy:
    @given(shuffled_dag_arcs())
    @settings(max_examples=300, deadline=None)
    def test_refuses_the_first_cover_implied_by_a_longer_path(self, drawn):
        n, arcs = drawn
        succ = {x: [b for a, b in arcs if a == x] for x in range(n)}

        def reach(x):  # every y at the end of a path of one or more arcs
            seen, todo = set(), list(succ[x])
            while todo:
                y = todo.pop()
                if y not in seen:
                    seen.add(y)
                    todo.extend(succ[y])
            return seen

        implied = [(a, b) for a, b in arcs if any(c != b and b in reach(c) for c in succ[a])]
        if implied:
            lo, hi = implied[0]
            with pytest.raises(ParseError) as got:
                FinitePoset(tuple(range(n)), tuple(arcs))
            assert str(got.value) == f"cover ({lo}, {hi}) is implied by transitivity"
        else:
            P = FinitePoset(tuple(range(n)), tuple(arcs))
            assert P.covers == tuple(arcs)

            def longest_down(x):  # over every chain of covers down from x
                return max((1 + longest_down(a) for a, b in arcs if b == x), default=0)

            assert P.height == tuple(longest_down(x) for x in range(n))
            # a linear extension, sorted by (height, index)
            assert P.topo_order == tuple(sorted(range(n), key=lambda x: (P.height[x], x)))
            place = {x: k for k, x in enumerate(P.topo_order)}
            assert all(place[a] < place[b] for a, b in arcs)

    def test_refuses_a_directed_cycle(self):
        # a 3-cycle beside a minimal element, and above one
        for covers in (((0, 1), (1, 2), (2, 0)), ((3, 0), (0, 1), (1, 2), (2, 0))):
            with pytest.raises(ParseError, match="^cover relation contains a directed cycle$"):
                FinitePoset(tuple("abcd"), covers)

    def test_cover_raising_the_height_by_two(self):
        # 0 < a < b with the implied cover 0 < b, whose ends differ in height by 2
        with pytest.raises(ParseError, match=r"^cover \(0, 2\) is implied by transitivity$"):
            FinitePoset(tuple("0ab"), ((0, 1), (1, 2), (0, 2)))


def strictly_below(Q):
    return [m ^ 1 << q for q, m in enumerate(Q.down_masks)]


def refusal_onto(P, d, Q):
    return ideal_iso_refusal(P, d, strictly_below(Q), Q.up_covers)


def refusal_by_rescans(P, d, below):
    """ideal_iso_refusal with each element's gains counted over all of Q."""
    for lo, hi in P.covers:
        add = d[hi] ^ d[lo]
        if add & d[lo] or add.bit_count() != 1 or below[add.bit_length() - 1] & ~d[lo]:
            return f"cover {P.labels[lo]!r} < {P.labels[hi]!r} does not map to a cover"
    if len(P.minimal_elements) != 1:
        return f"{len(P.minimal_elements)} minimal elements, not one"
    least = P.minimal_elements[0]
    if d[least]:
        return f"least element {P.labels[least]!r} does not map to the empty ideal"
    first = {}
    for x, m in enumerate(d):
        if first.setdefault(m, x) != x:
            return f"elements {P.labels[first[m]]!r} and {P.labels[x]!r} have one image"
    for x, (m, up) in enumerate(zip(d, P.up_covers)):
        gains = sum(b & ~m == 0 for b in below) - m.bit_count()
        if len(up) != gains:
            return f"element {P.labels[x]!r} has {len(up)} upper covers, its ideal {gains}"
    return None


class TestIdealIsoRefusal:
    @given(small_posets(max_n=4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_decides_as_brute_force(self, Q, data):
        ideals = ideals_bruteforce(Q)
        if data.draw(st.booleans()):
            # J(Q) itself, its ideals perhaps permuted
            J, masks = order_ideal_lattice(Q)
            P, d = J.poset, list(masks)
            if data.draw(st.booleans()):
                d = [masks[y] for y in data.draw(st.permutations(range(J.n)))]
        else:
            P = with_bottom(data.draw(small_posets(max_n=5)))
            image = st.sampled_from(sorted(ideals)) | st.integers(0, (1 << Q.n) - 1)
            d = data.draw(st.lists(image, min_size=P.n, max_size=P.n))
        iso = sorted(d) == sorted(ideals) and all(
            P.leq(x, y) == (d[x] & ~d[y] == 0) for x in range(P.n) for y in range(P.n)
        )
        assert (refusal_onto(P, d, Q) is None) == iso
        assert refusal_onto(P, d, Q) == refusal_by_rescans(P, d, strictly_below(Q))

    @pytest.mark.parametrize(
        "P, Q, d, refusal",
        [
            (chain_poset(3), chain_poset(2), [0, 0b10, 0b11],
             "cover '0' < '1' does not map to a cover"),
            (FinitePoset(tuple("ab"), ()), chain_poset(2), [0, 0b01],
             "2 minimal elements, not one"),
            (chain_poset(2), chain_poset(2), [0b01, 0b11],
             "least element '0' does not map to the empty ideal"),
            (grid_poset(2, 2), chain_poset(2), [0, 0b01, 0b01, 0b11],
             "elements (1, 2) and (2, 1) have one image"),
            (chain_poset(2), FinitePoset(tuple("ab"), ()), [0, 0b01],
             "element '0' has 1 upper covers, its ideal 2"),
        ],
        ids=["non-ideal image", "two minimal", "least not empty", "not injective",
             "missing ideal"],
    )
    def test_each_refusal(self, P, Q, d, refusal):
        assert refusal_onto(P, d, Q) == refusal


class TestDistributivity:
    def test_m3_diamond_fails_with_witness(self):
        # bottom, three incomparable middles, top
        P = FinitePoset(
            tuple("0abc1"),
            ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)),
        )
        _assert_breaks_distributivity(lattice_from_poset(P))

    def test_n5_pentagon_fails_with_witness(self):
        # bottom < a < b < top beside bottom < c < top
        P = FinitePoset(tuple("0abc1"), ((0, 1), (0, 3), (1, 2), (2, 4), (3, 4)))
        _assert_breaks_distributivity(lattice_from_poset(P))

    def test_ideal_lattices_distributive(self):
        for P in (grid_poset(2, 2), grid_poset(2, 3), chain_poset(5)):
            J, _ = order_ideal_lattice(P)
            ok, _ = is_distributive(J)
            assert ok
            assert distributive_by_birkhoff(J)

    def test_birkhoff_oracle_refuses_m3_and_n5(self):
        m3 = FinitePoset(
            tuple("0abc1"), ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4))
        )
        n5 = FinitePoset(tuple("0abc1"), ((0, 1), (0, 3), (1, 2), (2, 4), (3, 4)))
        for P in (m3, n5):
            assert not distributive_by_birkhoff(lattice_from_poset(P))

    def test_birkhoff_oracle_propagates_other_errors(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a cap overrun")

        monkeypatch.setattr("matchlat.oracles.order_ideal_lattice", broken)
        with pytest.raises(TypeError, match="not a cap overrun"):
            distributive_by_birkhoff(chain(2))


class TestRankAndComplements:
    def test_chain_ranks(self):
        L = chain(4)
        assert list(rank_check(L)) == [0, 1, 2, 3]

    def test_n5_cover_raising_rank_by_two_is_refused(self):
        # the longest chain 0 < a < b < 1 puts 1 at rank 3, c at rank 1
        P = FinitePoset(tuple("0abc1"), ((0, 1), (0, 3), (1, 2), (2, 4), (3, 4)))
        with pytest.raises(NotGraded, match="cover 'c' < '1' raises rank by 2"):
            rank_check(lattice_from_poset(P))

    def test_graded_non_modular_lattice_is_refused(self):
        # c ^ e = 0 and c v e = 1, so rank(c) + rank(e) = 4 != 0 + 3
        P = FinitePoset(
            tuple("0abcde1"),
            ((0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6), (4, 6), (5, 6)),
        )
        with pytest.raises(NotGraded, match="rank modularity fails for 'c', 'e'"):
            rank_check(lattice_from_poset(P))

    def test_2x3_complement_pair(self):
        L = l_2x3()
        comp = complements(L)
        pairs = {
            (L.labels[x], L.labels[y])
            for x, y in comp.items()
            if y is not None and x not in (L.bottom, L.top)
        }
        # the two central elements are complementary
        assert len(pairs) == 2
        rank = rank_check(L)
        for x, y in comp.items():
            if y is not None:
                assert rank[x] + rank[y] == rank[L.top]

    def test_chain_interior_has_no_complement(self):
        L = chain(4)
        comp = complements(L)
        assert comp[L.bottom] == L.top
        for x, y in comp.items():
            if x not in (L.bottom, L.top):
                assert y is None


class TestGridSublattice:
    def test_recovers_2x3(self):
        L = l_2x3()
        comp = complements(L)
        x = next(
            x for x, y in comp.items()
            if y is not None and x not in (L.bottom, L.top)
        )
        y = comp[x]
        cx = _a_chain(L, x)
        cy = _a_chain(L, y)
        grid = grid_sublattice(L, x, y, cx, cy)
        flat = {z for row in grid.elements for z in row}
        assert flat == set(range(L.n))

    def test_rejects_bottom(self):
        L = l_2x3()
        with pytest.raises((NotComplementary, ChainNotSaturated)):
            grid_sublattice(L, L.bottom, L.top, [L.bottom], _a_chain(L, L.top))

    def test_2x2_central_pair(self):
        L = direct_product(chain(2), chain(2))
        comp = complements(L)
        x = next(
            x for x, y in comp.items()
            if y is not None and x not in (L.bottom, L.top)
        )
        grid = grid_sublattice(L, x, comp[x], _a_chain(L, x), _a_chain(L, comp[x]))
        assert len(grid.elements) == 2 and len(grid.elements[0]) == 2


def _a_chain(L, x):
    chain = [x]
    while chain[-1] != L.bottom:
        chain.append(L.poset.down_covers[chain[-1]][0])
    return list(reversed(chain))


class TestJoinIrreducibles:
    def test_chain(self):
        P, _ = join_irreducibles(chain(4))
        assert P.n == 3
        assert len(P.covers) == 2

    def test_j_2x2(self):
        J, _ = order_ideal_lattice(grid_poset(2, 2))
        P, _ = join_irreducibles(J)
        assert poset_isomorphic(P, grid_poset(2, 2)) is not None


class TestOrderIdealLattice:
    def test_empty_poset(self):
        P = FinitePoset((), ())
        J, masks = order_ideal_lattice(P)
        assert J.n == 1 and masks == (0,)

    def test_2x2_grid_six_ideals(self):
        J, _ = order_ideal_lattice(grid_poset(2, 2))
        assert J.n == 6

    def test_r2_five_ideals(self):
        # one bottom below two incomparable tops
        P = FinitePoset(((1, 1), (1, 2), (2, 1)), ((0, 1), (0, 2)))
        J, _ = order_ideal_lattice(P)
        assert J.n == 5

    def test_counts_against_binomials(self):
        from math import comb

        for m in range(1, 5):
            for n in range(1, 5):
                J, _ = order_ideal_lattice(grid_poset(m, n))
                assert J.n == comb(m + n, m)

    def test_cap(self):
        with pytest.raises(SizeCapExceeded):
            order_ideal_lattice(grid_poset(3, 3), caps=SizeCaps(max_matchings=5))
        with pytest.raises(SizeCapExceeded, match="more than 19 order ideals"):
            order_ideal_lattice(grid_poset(3, 3), caps=SizeCaps(max_matchings=19))
        J, _ = order_ideal_lattice(grid_poset(3, 3), caps=SizeCaps(max_matchings=20))
        assert J.n == 20

    def test_tall_chain(self):
        """The search depth is the poset's height, past the recursion limit."""
        J, masks = order_ideal_lattice(chain_poset(1100))
        assert J.n == 1101
        assert masks == tuple((1 << k) - 1 for k in range(1101))

    def test_enumeration_leaves_no_cyclic_garbage(self):
        order_ideal_lattice(grid_poset(3, 3))
        gc.collect()
        gc.disable()
        try:
            order_ideal_lattice(grid_poset(3, 3))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_subset_oracle(self):
        for P in (grid_poset(2, 3), chain_poset(6), grid_poset(3, 3)):
            _, masks = order_ideal_lattice(P)
            assert set(masks) == ideals_bruteforce(P)


def rebuilt_decomposition(L):
    """The reference route: J(P_c) rebuilt per component of Irr L by
    order_ideal_lattice, and x's coordinates read off D[x]."""
    P, _ = join_irreducibles(L)
    D = L.poset.irreducible_coordinates[1]
    factors, columns = [], []
    for comp in P.components:
        pos = {p: k for k, p in enumerate(comp)}
        covers = tuple(sorted((pos[a], pos[b]) for a, b in P.covers if a in pos))
        F, masks = order_ideal_lattice(FinitePoset(tuple(P.labels[p] for p in comp), covers))
        index = {m: k for k, m in enumerate(masks)}
        factors.append(F)
        columns.append([index[sum(1 << k for k, p in enumerate(comp) if d >> p & 1)] for d in D])
    return factors, list(zip(*columns)) if factors else [()] * L.n


def product_refusal(L, iso, factors):
    """Why iso is no isomorphism of L onto the product of the factors: the
    product's covers move one coordinate by a cover of its factor."""
    if len(set(iso)) != L.n or math.prod(F.n for F in factors) != L.n:
        return "not a bijection onto the product"

    def product_cover(s, t):
        moved = [c for c in range(len(factors)) if s[c] != t[c]]
        return len(moved) == 1 and t[moved[0]] in factors[moved[0]].poset.up_covers[s[moved[0]]]

    n_covers = sum(len(F.poset.covers) * (L.n // F.n) for F in factors)
    return order_iso_refusal(L.poset, iso, product_cover, n_covers)


class TestDecomposition:
    @given(small_posets(max_n=5), st.integers(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_rebuilt_factors(self, P, k):
        J, _ = order_ideal_lattice(P)
        for L in (J, direct_product(J, chain(k))):
            dec = irreducible_decomposition(L)
            factors, iso = rebuilt_decomposition(L)
            assert product_refusal(L, iso, factors) is None
            assert [F.n for F in dec.factors] == [F.n for F in factors]
            if len(factors) == 1:
                # the one factor is L on its own indices
                assert dec.product_iso == tuple((x,) for x in range(L.n))
                moved = sorted((iso[a][0], iso[b][0]) for a, b in dec.factors[0].poset.covers)
                assert moved == sorted(factors[0].poset.covers)
                assert central_elements(L) == ()
                continue
            assert product_refusal(L, dec.product_iso, factors) is None
            assert dec.product_iso == tuple(iso)
            assert [F.poset.covers for F in dec.factors] == [F.poset.covers for F in factors]
            assert all((F.bottom, F.top) == (0, F.n - 1) for F in dec.factors)
            inv = {t: x for x, t in enumerate(iso)}
            units = [
                inv[tuple(F.top if c == c2 else F.bottom for c2, F in enumerate(factors))]
                for c in range(len(factors))
            ]
            assert central_elements(L) == tuple(sorted(units))

    @pytest.mark.parametrize(
        "P, refusal",
        [(N5, "cover 'c' < '1' does not map to a cover"),
         (M3, "cover 'a' < '1' does not map to a cover"),
         (SEVEN, "element 'a' has 1 upper covers, its ideal 2")],
        ids=["N5", "M3", "seven"],
    )
    def test_non_distributive_lattices_raise(self, P, refusal):
        with pytest.raises(ProductMismatch, match=refusal):
            irreducible_decomposition(lattice_from_poset(P))

    def test_2x3_factors(self):
        dec = irreducible_decomposition(l_2x3())
        assert sorted(F.n for F in dec.factors) == [2, 3]

    def test_trivial_lattice(self):
        dec = irreducible_decomposition(chain(1))
        assert dec.factors == ()

    def test_j_2x2_irreducible(self):
        J, _ = order_ideal_lattice(grid_poset(2, 2))
        dec = irreducible_decomposition(J)
        assert len(dec.factors) == 1
        assert central_elements(J) == ()

    def test_central_elements_of_2x3(self):
        L = l_2x3()
        cents = central_elements(L)
        assert len(cents) == 2
        comp = complements(L)
        assert comp[cents[0]] == cents[1]

    def test_chain_has_no_central_elements(self):
        assert central_elements(chain(5)) == ()

    def test_2x3_factors_are_chains(self):
        dec = irreducible_decomposition(l_2x3())
        for F in dec.factors:
            assert len(F.poset.covers) == F.n - 1

    def test_irreducibility_cross_checks(self):
        # irreducible iff connected irreducibles iff no centrals iff only
        # extremes complemented; check on one product and one irreducible
        for L, expect_irreducible in ((l_2x3(), False),
                                      (order_ideal_lattice(grid_poset(2, 2))[0], True)):
            P, _ = join_irreducibles(L)
            connected = len(P.components) == 1
            no_centrals = central_elements(L) == ()
            comp = complements(L)
            only_extremes = all(
                y is None
                for x, y in comp.items()
                if x not in (L.bottom, L.top)
            )
            assert connected == expect_irreducible
            assert no_centrals == expect_irreducible
            assert only_extremes == expect_irreducible

    def test_complemented_count_is_power_of_factors(self):
        # complemented elements form a Boolean algebra over the factors
        for L in (
            l_2x3(),
            direct_product(l_2x3(), chain(2)),
            order_ideal_lattice(grid_poset(2, 2))[0],
        ):
            dec = irreducible_decomposition(L)
            n_complemented = sum(
                1 for y in complements(L).values() if y is not None
            )
            assert n_complemented == 2 ** len(dec.factors)


class TestIsomorphism:
    def test_2x3_vs_3x2(self):
        assert lattice_isomorphic(
            l_2x3(), direct_product(chain(3), chain(2))
        ).isomorphic

    def test_4chain_vs_2x2(self):
        res = lattice_isomorphic(chain(4), direct_product(chain(2), chain(2)))
        assert not res.isomorphic
        assert res.refusal

    def test_pentagon_against_a_relabelled_copy(self):
        """The search is not confined to distributive lattices."""
        N5 = pentagon()
        perm = (3, 0, 4, 1, 2)
        copy = lattice_from_poset(
            FinitePoset(
                tuple(N5.labels[perm.index(k)] for k in range(N5.n)),
                tuple((perm[lo], perm[hi]) for lo, hi in N5.poset.covers),
            )
        )
        res = lattice_isomorphic(N5, copy)
        assert res.isomorphic
        m = res.mapping
        for x in range(N5.n):
            for y in range(N5.n):
                assert m[N5.meet(x, y)] == copy.meet(m[x], m[y])
                assert m[N5.join(x, y)] == copy.join(m[x], m[y])

    def test_pentagon_against_ideals_of_lambda(self):
        # J(a < c > b) is 0 < a, b < a v b < 1: five elements ranked 0,1,1,2,3
        J, _ = order_ideal_lattice(poset_from_relation("abc", [(0, 2), (1, 2)]))
        N5 = pentagon()
        assert J.n == N5.n and sorted(J.rank) == sorted(N5.rank)
        res = lattice_isomorphic(N5, J)
        assert not res.isomorphic
        assert res.refusal == "no order isomorphism"

    @given(small_posets(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_poset_isomorphic_decides_as_brute_force(self, P, data):
        n = P.n
        if data.draw(st.booleans()):
            g = data.draw(st.permutations(range(n)))
            Q = poset_from_relation(range(n), [(g[x], g[y]) for x, y in P.covers])
        else:
            Q = data.draw(small_posets(max_n=n, min_n=n))

        def order_iso(f):
            return all(
                P.leq(x, y) == Q.leq(f[x], f[y]) for x in range(n) for y in range(n)
            )

        f = poset_isomorphic(P, Q)
        assert (f is not None) == any(map(order_iso, itertools.permutations(range(n))))
        if f is not None:
            assert sorted(f) == list(range(n)) and order_iso(f)

    def test_birkhoff_round_trip(self):
        for L in (l_2x3(), chain(5), order_ideal_lattice(grid_poset(2, 2))[0]):
            P, _ = join_irreducibles(L)
            J, _ = order_ideal_lattice(P)
            res = lattice_isomorphic(L, J)
            assert res.isomorphic
            # the mapping preserves meet and join as well
            m = res.mapping
            for x in range(L.n):
                for y in range(L.n):
                    assert m[L.meet(x, y)] == J.meet(m[x], m[y])
                    assert m[L.join(x, y)] == J.join(m[x], m[y])


class TestDirectProduct:
    def test_identity(self):
        L = l_2x3()
        P = direct_product(L, chain(1))
        assert lattice_isomorphic(L, P).isomorphic

    def test_ideals_of_disjoint_union(self):
        P1, P2 = grid_poset(2, 2), chain_poset(3)
        J1, _ = order_ideal_lattice(P1)
        J2, _ = order_ideal_lattice(P2)
        covers = P1.covers + tuple((lo + P1.n, hi + P1.n) for lo, hi in P2.covers)
        J12, _ = order_ideal_lattice(FinitePoset(P1.labels + P2.labels, covers))
        assert lattice_isomorphic(direct_product(J1, J2), J12).isomorphic


class TestPosetProperties:
    @given(small_posets())
    @settings(max_examples=40, deadline=None)
    def test_ideal_lattice_is_distributive(self, P):
        J, masks = order_ideal_lattice(P)
        assert is_distributive(J)[0]
        assert set(masks) == ideals_bruteforce(P)

    @given(small_posets())
    @settings(max_examples=40, deadline=None)
    def test_birkhoff_round_trip_random(self, P):
        J, _ = order_ideal_lattice(P)
        Irr, _ = join_irreducibles(J)
        # the join-irreducible ideals are the principal ones, so Irr = P
        assert poset_isomorphic(Irr, P) is not None

    @given(small_posets())
    @settings(max_examples=40, deadline=None)
    def test_lattice_tables_are_the_brute_force_bounds(self, P):
        # most draws are not lattices; P with a new bottom and top often is
        for Q in (P, with_bottom_and_top(P)):
            glb = {(x, y): _extremal_bound(Q, x, y, Q.leq) for x in range(Q.n) for y in range(Q.n)}
            lub = {(x, y): _extremal_bound(Q, x, y, lambda a, b: Q.leq(b, a)) for x, y in glb}
            # the empty poset has no bottom, so it is no lattice either
            if Q.n == 0 or None in glb.values() or None in lub.values():
                with pytest.raises(NotALattice):
                    lattice_from_poset(Q)
                continue
            L = lattice_from_poset(Q)
            for (x, y), z in glb.items():
                assert L.meet(x, y) == z
                assert L.join(x, y) == lub[x, y]
                # the order on D is Q's order, also on non-distributive draws like N5
                assert L.leq(x, y) == Q.leq(x, y)
            assert all(Q.leq(L.bottom, z) and Q.leq(z, L.top) for z in range(Q.n))

    @given(small_posets())
    @settings(max_examples=40, deadline=None)
    def test_ideal_lattice_tables_are_intersection_and_union(self, P):
        J, masks = order_ideal_lattice(P)
        index = {m: k for k, m in enumerate(masks)}
        for a in range(J.n):
            for b in range(J.n):
                assert J.meet(a, b) == index[masks[a] & masks[b]]
                assert J.join(a, b) == index[masks[a] | masks[b]]
        assert (J.bottom, J.top) == (index[0], index[(1 << P.n) - 1])

    @given(small_posets(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_cover_criterion_is_pairwise_order_agreement(self, P, data):
        n = P.n
        g = data.draw(st.permutations(range(n)))
        if data.draw(st.booleans()):
            # Q is P carried along g, so g is an isomorphism onto Q
            Q = poset_from_relation(range(n), [(g[x], g[y]) for x, y in P.covers])
        else:
            Q = data.draw(small_posets(max_n=n, min_n=n))
        f = g if data.draw(st.booleans()) else data.draw(st.permutations(range(n)))
        pairwise = all(
            P.leq(x, y) == Q.leq(f[x], f[y]) for x in range(n) for y in range(n)
        )
        refusal = order_iso_refusal(
            P, f, lambda a, b: b in Q.up_covers[a], len(Q.covers)
        )
        assert (refusal is None) == pairwise

    @given(small_posets(max_n=3), small_posets(max_n=3))
    @settings(max_examples=40, deadline=None)
    def test_product_tables_are_componentwise(self, P1, P2):
        L1, _ = order_ideal_lattice(P1)
        L2, _ = order_ideal_lattice(P2)
        L = direct_product(L1, L2)
        for x in range(L.n):
            a1, b1 = divmod(x, L2.n)
            for y in range(L.n):
                a2, b2 = divmod(y, L2.n)
                assert L.meet(x, y) == L1.meet(a1, a2) * L2.n + L2.meet(b1, b2)
                assert L.join(x, y) == L1.join(a1, a2) * L2.n + L2.join(b1, b2)
        assert L.bottom == L1.bottom * L2.n + L2.bottom
        assert L.top == L1.top * L2.n + L2.top


def _assert_breaks_distributivity(L):
    ok, witness = is_distributive(L)
    assert not ok
    x, y, z = witness
    assert L.meet(x, L.join(y, z)) != L.join(L.meet(x, y), L.meet(x, z))


def _extremal_bound(P, x, y, le):
    """The le-greatest z with le(z, x) and le(z, y), or None."""
    common = [z for z in range(P.n) if le(z, x) and le(z, y)]
    best = [z for z in common if all(le(w, z) for w in common)]
    return best[0] if best else None
