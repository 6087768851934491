import pytest
from hypothesis import given, settings, strategies as st

from matchlat.caps import SizeCaps
from matchlat.errors import (
    ChainNotSaturated,
    NotALattice,
    NotComplementary,
    NotGraded,
    SizeCapExceeded,
)
from matchlat.lattice import (
    FinitePoset,
    central_elements,
    chain_poset,
    complements,
    direct_product,
    disjoint_union,
    grid_poset,
    grid_sublattice,
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
)
from matchlat.oracles import distributive_by_birkhoff, ideals_bruteforce


def chain(k):
    return lattice_from_poset(chain_poset(k))


def l_2x3():
    return direct_product(chain(2), chain(3))


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

    def test_subset_oracle(self):
        for P in (grid_poset(2, 3), chain_poset(6), grid_poset(3, 3)):
            _, masks = order_ideal_lattice(P)
            assert set(masks) == ideals_bruteforce(P)


class TestDecomposition:
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
        J12, _ = order_ideal_lattice(disjoint_union(P1, P2))
        assert lattice_isomorphic(direct_product(J1, J2), J12).isomorphic


@st.composite
def small_posets(draw, max_n=6, min_n=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((i, j))
    return poset_from_relation(tuple(range(n)), pairs)


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
        n = P.n
        bounded = poset_from_relation(
            ("0",) + P.labels + ("1",),
            [(0, x + 1) for x in range(n + 1)]
            + [(x + 1, n + 1) for x in range(n)]
            + [(x + 1, y + 1) for x in range(n) for y in range(n) if x != y and P.leq(x, y)],
        )
        for Q in (P, bounded):
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
