"""Finite posets and distributive lattices.

Elements are indexed 0..n-1 with opaque labels; the order is stored as an
irredundant cover relation.  A lattice's meet and join are methods, one
lookup of ``down[x] & down[y]`` (``up[x] & up[y]``) among the principal
down-sets (up-sets); :func:`lattice_from_poset` certifies that no lookup
misses.  Every order map (a product decomposition, a lifted isomorphism)
is certified by its covers alone, through :func:`order_iso_refusal`.
Everything here is exhaustive and exact: triple-loop distributivity,
explicit complement search, order-ideal enumeration with bitmask
encoding, and factorization through connected components of the
join-irreducible subposet.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

from .caps import DEFAULT_CAPS, SizeCaps
from .derive import component_labels, per_object
from .errors import (
    ChainNotSaturated,
    DuplicateComplement,
    NotALattice,
    NotComplementary,
    NotGraded,
    ParseError,
    ProductMismatch,
    SizeCapExceeded,
)


@dataclass(frozen=True, eq=False)
class FinitePoset:
    """Finite poset as labeled elements plus an irredundant cover relation."""

    labels: tuple[Hashable, ...]
    covers: tuple[tuple[int, int], ...]  # (lower, upper) index pairs

    def __post_init__(self) -> None:
        n = len(self.labels)
        for lo, hi in self.covers:
            if not (0 <= lo < n and 0 <= hi < n) or lo == hi:
                raise ParseError(f"bad cover pair ({lo}, {hi})")
        if len(set(self.covers)) != len(self.covers):
            raise ParseError("duplicate cover pair")
        self.topo_order  # raises on a directed cycle
        # irredundancy: no cover implied by a chain of two covers
        up = self.up_covers
        reach_without = self._strict_up_masks
        for lo, hi in self.covers:
            for mid in up[lo]:
                if mid != hi and reach_without[mid] >> hi & 1:
                    raise ParseError(f"cover ({lo}, {hi}) is implied by transitivity")

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def up_covers(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for lo, hi in self.covers:
            adj[lo].append(hi)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def down_covers(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for lo, hi in self.covers:
            adj[hi].append(lo)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def topo_order(self) -> tuple[int, ...]:
        """Deterministic linear extension (Kahn with min-index choice)."""
        import heapq

        indeg = [len(d) for d in self.down_covers]
        heap = [i for i in range(self.n) if indeg[i] == 0]
        heapq.heapify(heap)
        order: list[int] = []
        while heap:
            x = heapq.heappop(heap)
            order.append(x)
            for y in self.up_covers[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    heapq.heappush(heap, y)
        if len(order) != self.n:
            raise ParseError("cover relation contains a directed cycle")
        return tuple(order)

    @cached_property
    def _strict_up_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for x in reversed(self.topo_order):
            m = 0
            for y in self.up_covers[x]:
                m |= masks[y] | (1 << y)
            masks[x] = m
        return tuple(masks)

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        """Bitmask of {y : x <= y} per element x."""
        return tuple(m | (1 << x) for x, m in enumerate(self._strict_up_masks))

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        masks = [1 << x for x in range(self.n)]
        for x in self.topo_order:
            for y in self.up_covers[x]:
                masks[y] |= masks[x]
        return tuple(masks)

    def leq(self, x: int, y: int) -> bool:
        return bool(self.up_masks[x] >> y & 1)

    @cached_property
    def minimal_elements(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.n) if not self.down_covers[x])

    @cached_property
    def maximal_elements(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.n) if not self.up_covers[x])

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the comparability (Hasse) graph."""
        members: dict[int, list[int]] = {}
        for x, label in enumerate(component_labels(self.n, self.covers)):
            members.setdefault(label, []).append(x)
        return tuple(tuple(c) for c in members.values())

    def subposet(self, indices: Sequence[int]) -> "FinitePoset":
        """Induced subposet; the cover relation is recomputed by reduction."""
        idx = list(indices)
        pos = {x: i for i, x in enumerate(idx)}
        pairs = [
            (pos[x], pos[y])
            for x in idx
            for y in idx
            if x != y and self.leq(x, y)
        ]
        return poset_from_relation(tuple(self.labels[x] for x in idx), pairs)

    def dual(self) -> "FinitePoset":
        return FinitePoset(self.labels, tuple((hi, lo) for lo, hi in self.covers))

    def to_json(self) -> dict:
        return {
            "elements": [repr(l) for l in self.labels],
            "covers": [[lo, hi] for lo, hi in sorted(self.covers)],
        }


def _bits(mask: int) -> Iterator[int]:
    """The set bit positions of mask, lowest first."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def poset_from_relation(
    labels: Sequence[Hashable], strict_pairs: Iterable[tuple[int, int]]
) -> FinitePoset:
    """Build a poset from strict comparabilities via transitive reduction."""
    n = len(labels)
    lt = [0] * n
    for x, y in strict_pairs:
        lt[x] |= 1 << y
    # close transitively
    changed = True
    while changed:
        changed = False
        for x in range(n):
            m = lt[x]
            acc = m
            for y in _bits(m):
                acc |= lt[y]
            if acc != m:
                lt[x] = acc
                changed = True
    for x in range(n):
        if lt[x] >> x & 1:
            raise ParseError("relation contains a cycle")
    covers: list[tuple[int, int]] = []
    for x in range(n):
        # t covers x iff x < t and no z sits strictly between: x < z < t
        beyond = 0
        for z in _bits(lt[x]):
            beyond |= lt[z]
        for t in _bits(lt[x] & ~beyond):
            covers.append((x, t))
    return FinitePoset(tuple(labels), tuple(sorted(covers)))


def chain_poset(k: int, label_prefix: str = "") -> FinitePoset:
    labels = tuple(f"{label_prefix}{i}" for i in range(k))
    return FinitePoset(labels, tuple((i, i + 1) for i in range(k - 1)))


def grid_poset(m: int, n: int) -> FinitePoset:
    """Product of an m-chain and an n-chain on labels (i, j), 1-based."""
    labels = tuple((i, j) for i in range(1, m + 1) for j in range(1, n + 1))
    pos = {lab: k for k, lab in enumerate(labels)}
    covers = []
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if i < m:
                covers.append((pos[(i, j)], pos[(i + 1, j)]))
            if j < n:
                covers.append((pos[(i, j)], pos[(i, j + 1)]))
    return FinitePoset(labels, tuple(sorted(covers)))


def disjoint_union(P1: FinitePoset, P2: FinitePoset) -> FinitePoset:
    labels = P1.labels + P2.labels
    covers = list(P1.covers) + [(lo + P1.n, hi + P1.n) for lo, hi in P2.covers]
    return FinitePoset(labels, tuple(covers))


# --- lattices ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiniteLattice:
    """Finite lattice: a poset with 0/1 elements and mask-lookup meet/join."""

    poset: FinitePoset
    bottom: int
    top: int
    by_down: dict[int, int]  # principal down-set mask -> element
    by_up: dict[int, int]  # principal up-set mask -> element

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def labels(self) -> tuple:
        return self.poset.labels

    def leq(self, x: int, y: int) -> bool:
        return self.poset.leq(x, y)

    def meet(self, x: int, y: int) -> int:
        down = self.poset.down_masks
        return self.by_down[down[x] & down[y]]

    def join(self, x: int, y: int) -> int:
        up = self.poset.up_masks
        return self.by_up[up[x] & up[y]]

    @cached_property
    def rank(self) -> tuple[int, ...]:
        """Longest-chain height from the bottom element."""
        rho = [0] * self.n
        for x in self.poset.topo_order:
            for y in self.poset.up_covers[x]:
                rho[y] = max(rho[y], rho[x] + 1)
        return tuple(rho)


def lattice_from_poset(P: FinitePoset) -> FiniteLattice:
    """Certify that every pair has a meet and a join; raise NotALattice
    with a witness pair.

    The common lower bounds of x and y form the down-set of some z exactly
    when z = x ^ y, so the meet exists when ``down[x] & down[y]`` is a
    principal down-set, and is the element it belongs to; joins likewise
    with up-sets.  The lattice keeps the two lookups, not a table.
    """
    down = P.down_masks
    up = P.up_masks
    by_down = {m: z for z, m in enumerate(down)}
    by_up = {m: w for w, m in enumerate(up)}
    for x in range(P.n):
        for y in range(x, P.n):
            lower = down[x] & down[y]
            if not lower:
                raise NotALattice(f"elements {P.labels[x]!r}, {P.labels[y]!r} have no meet")
            if lower not in by_down:
                raise NotALattice(
                    f"elements {P.labels[x]!r}, {P.labels[y]!r} have no unique meet"
                )
            upper = up[x] & up[y]
            if not upper:
                raise NotALattice(f"elements {P.labels[x]!r}, {P.labels[y]!r} have no join")
            if upper not in by_up:
                raise NotALattice(
                    f"elements {P.labels[x]!r}, {P.labels[y]!r} have no unique join"
                )
    if len(P.minimal_elements) != 1 or len(P.maximal_elements) != 1:
        raise NotALattice("lattice must have unique minimal and maximal elements")
    return FiniteLattice(P, P.topo_order[0], P.topo_order[-1], by_down, by_up)


def is_distributive(L: FiniteLattice) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Triple-loop check of x ^ (y v z) == (x ^ y) v (x ^ z); witness on failure.

    Both sides are symmetric in y and z, so z runs from y up.
    """
    meets = [[L.meet(x, y) for y in range(L.n)] for x in range(L.n)]
    joins = [[L.join(x, y) for y in range(L.n)] for x in range(L.n)]
    for x, mx in enumerate(meets):
        for y, jy in enumerate(joins):
            jxy = joins[mx[y]]
            for z in range(y, L.n):
                if mx[jy[z]] != jxy[mx[z]]:
                    return False, (x, y, z)
    return True, None


def rank_check(L: FiniteLattice) -> tuple[int, ...]:
    """Certify the rank function: graded covers and the modular equality."""
    rho = L.rank
    for lo, hi in L.poset.covers:
        if rho[hi] - rho[lo] != 1:
            raise NotGraded(
                f"cover {L.labels[lo]!r} < {L.labels[hi]!r} raises rank by "
                f"{rho[hi] - rho[lo]}"
            )
    if rho[L.bottom] != 0:
        raise NotGraded("bottom element has nonzero rank")
    # symmetric in x and y, so the first failing pair has x <= y
    for x in range(L.n):
        for y in range(x, L.n):
            if rho[x] + rho[y] != rho[L.meet(x, y)] + rho[L.join(x, y)]:
                raise NotGraded(
                    f"rank modularity fails for {L.labels[x]!r}, {L.labels[y]!r}"
                )
    return L.rank


def complements(L: FiniteLattice) -> dict[int, Optional[int]]:
    """The unique complement of each element, or None.

    A duplicate complement falsifies the distributivity precondition and
    raises.
    """
    out: dict[int, Optional[int]] = {}
    for x in range(L.n):
        ys = [
            y
            for y in range(L.n)
            if L.meet(x, y) == L.bottom and L.join(x, y) == L.top
        ]
        if len(ys) > 1:
            raise DuplicateComplement(
                f"element {L.labels[x]!r} has complements "
                f"{[L.labels[y] for y in ys]!r}"
            )
        out[x] = ys[0] if ys else None
    return out


@dataclass(frozen=True, eq=False)
class GridSublattice:
    """Certified grid sublattice spanned by two complementary chains."""

    elements: tuple[tuple[int, ...], ...]  # elements[i][j] = x_i v y_j
    lattice: FiniteLattice  # the (r+1) x (k-r+1) grid it is isomorphic to


def grid_sublattice(
    L: FiniteLattice,
    x: int,
    y: int,
    chain_x: Sequence[int],
    chain_y: Sequence[int],
) -> GridSublattice:
    """Certify the grid sublattice {x_i v y_j} for complementary x, y.

    chain_x and chain_y are saturated chains from the bottom to x and to
    y.  The joins are checked pairwise distinct and closed under meet and
    join, with meet/join acting coordinatewise; the certified result is
    isomorphic to the product of an (r+1)-chain and a (k-r+1)-chain.
    """
    if L.meet(x, y) != L.bottom or L.join(x, y) != L.top:
        raise NotComplementary(f"{L.labels[x]!r} and {L.labels[y]!r}")
    for chain, end in ((chain_x, x), (chain_y, y)):
        if not chain or chain[0] != L.bottom or chain[-1] != end:
            raise ChainNotSaturated("chain must run from the bottom to its element")
        for a, b in zip(chain, chain[1:]):
            if b not in L.poset.up_covers[a]:
                raise ChainNotSaturated(
                    f"{L.labels[a]!r} < {L.labels[b]!r} is not a cover"
                )
    r = len(chain_x) - 1
    s = len(chain_y) - 1
    if r < 1 or s < 1:
        raise NotComplementary("both ranks must be at least 1")

    grid = [[L.join(chain_x[i], chain_y[j]) for j in range(s + 1)] for i in range(r + 1)]
    flat = [z for row in grid for z in row]
    if len(set(flat)) != (r + 1) * (s + 1):
        raise NotALattice("grid joins are not pairwise distinct")
    index = {z: (i, j) for i, row in enumerate(grid) for j, z in enumerate(row)}
    for a in flat:
        ia, ja = index[a]
        for b in flat:
            ib, jb = index[b]
            if L.meet(a, b) != grid[min(ia, ib)][min(ja, jb)]:
                raise NotALattice("grid not closed under meet")
            if L.join(a, b) != grid[max(ia, ib)][max(ja, jb)]:
                raise NotALattice("grid not closed under join")
    model = lattice_from_poset(grid_poset(r + 1, s + 1))
    return GridSublattice(
        elements=tuple(tuple(row) for row in grid), lattice=model
    )


def join_irreducibles(L: FiniteLattice) -> tuple[FinitePoset, tuple[int, ...]]:
    """Subposet of non-bottom elements with exactly one lower cover.

    Returns the subposet and the lattice indices of its elements (in the
    subposet's element order).
    """
    idx = [
        x
        for x in range(L.n)
        if x != L.bottom and len(L.poset.down_covers[x]) == 1
    ]
    idx.sort()
    return L.poset.subposet(idx), tuple(idx)


def order_ideal_lattice(
    P: FinitePoset, caps: SizeCaps = DEFAULT_CAPS
) -> tuple[FiniteLattice, tuple[int, ...]]:
    """The lattice J(P) of order ideals (down-sets) under inclusion.

    Ideals are encoded as bitmasks over P's elements; meet is
    intersection, join is union.  Returns the lattice and the tuple of
    masks (the label of ideal k is ``masks[k]``).
    """
    masks = _enumerate_ideals(P, caps.max_matchings)
    index = {m: k for k, m in enumerate(masks)}
    covers: list[tuple[int, int]] = []
    for k, m in enumerate(masks):
        # remove one maximal element of the ideal for each lower cover
        for x in range(P.n):
            if m >> x & 1 and not (m & P._strict_up_masks[x]):
                covers.append((index[m & ~(1 << x)], k))
    poset = FinitePoset(tuple(masks), tuple(sorted(set(covers))))
    return lattice_from_poset(poset), masks


def _enumerate_ideals(P: FinitePoset, cap: int) -> tuple[int, ...]:
    """All down-sets of P, DFS over a fixed linear extension, as bitmasks."""
    ext = P.topo_order
    out: list[int] = []

    def rec(i: int, mask: int, forbidden: int) -> None:
        if i == len(ext):
            if len(out) >= cap:
                raise SizeCapExceeded(f"more than {cap} order ideals")
            out.append(mask)
            return
        x = ext[i]
        # exclude x: everything above x is excluded too
        rec(i + 1, mask, forbidden | P.up_masks[x])
        # include x if allowed and its strict down-set is already in
        if not (forbidden >> x & 1) and (P.down_masks[x] & ~(1 << x)) & ~mask == 0:
            rec(i + 1, mask | (1 << x), forbidden)

    rec(0, 0, 0)
    return tuple(sorted(out, key=lambda m: (bin(m).count("1"), m)))


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Irreducible direct-product decomposition of a distributive lattice."""

    factors: tuple[FiniteLattice, ...]
    product_iso: tuple[tuple[int, ...], ...]  # element index -> factor indices
    factor_irreducibles: tuple[tuple[Hashable, ...], ...]


@per_object
def irreducible_decomposition(L: FiniteLattice) -> Decomposition:
    """Factor L as the product of J(P_c) over components P_c of its
    join-irreducible subposet; certified against L cover by cover.

    Computed once per lattice object; :func:`central_elements` reuses it.
    """
    P, idx = join_irreducibles(L)
    comps = P.components
    if L.n == 1:
        # convention: the one-element lattice decomposes into no factors
        return Decomposition(factors=(), product_iso=((),), factor_irreducibles=())
    if not comps:
        raise ProductMismatch("nontrivial lattice with no join-irreducibles")

    factors: list[FiniteLattice] = []
    factor_masks: list[tuple[int, ...]] = []
    factor_index: list[dict[int, int]] = []
    for comp in comps:
        sub = P.subposet(comp)
        F, masks = order_ideal_lattice(sub, caps=SizeCaps(max_matchings=L.n + 1))
        factors.append(F)
        factor_masks.append(masks)
        factor_index.append({m: k for k, m in enumerate(masks)})

    # map each lattice element to its tuple of component ideals
    down = L.poset.down_masks
    iso: list[tuple[int, ...]] = []
    for x in range(L.n):
        coords: list[int] = []
        for c, comp in enumerate(comps):
            mask = 0
            for pos_in_sub, p_elt in enumerate(comp):
                if down[x] >> idx[p_elt] & 1:
                    mask |= 1 << pos_in_sub
            coords.append(factor_index[c][mask])
        iso.append(tuple(coords))

    if len(set(iso)) != L.n:
        raise ProductMismatch("element-to-tuple map is not injective")
    expected = 1
    for F in factors:
        expected *= F.n
    if expected != L.n:
        raise ProductMismatch(
            f"product of factor sizes {expected} != lattice size {L.n}"
        )

    def product_cover(s: tuple[int, ...], t: tuple[int, ...]) -> bool:
        # t covers s when it moves one coordinate, by a cover of its factor
        moved = [c for c in range(len(factors)) if s[c] != t[c]]
        return len(moved) == 1 and all(
            t[c] in factors[c].poset.up_covers[s[c]] for c in moved
        )

    n_covers = sum(len(F.poset.covers) * (L.n // F.n) for F in factors)
    refusal = order_iso_refusal(L.poset, iso, product_cover, n_covers)
    if refusal is not None:
        raise ProductMismatch(refusal)

    # canonical factor order: by the smallest lattice index of a member
    order = sorted(
        range(len(comps)), key=lambda c: min(idx[p] for p in comps[c])
    )
    factors = [factors[c] for c in order]
    iso = [tuple(t[c] for c in order) for t in iso]
    irr_labels = tuple(
        tuple(P.labels[p] for p in comps[c]) for c in order
    )
    return Decomposition(
        factors=tuple(factors),
        product_iso=tuple(iso),
        factor_irreducibles=irr_labels,
    )


def central_elements(L: FiniteLattice) -> tuple[int, ...]:
    """The unit-vector elements of the irreducible decomposition.

    Empty exactly when L is irreducible or trivial.
    """
    dec = irreducible_decomposition(L)
    if len(dec.factors) < 2:
        return ()
    inv = {t: x for x, t in enumerate(dec.product_iso)}
    out = []
    for c, F in enumerate(dec.factors):
        t = tuple(
            F2.top if c2 == c else F2.bottom for c2, F2 in enumerate(dec.factors)
        )
        out.append(inv[t])
    return tuple(sorted(out))


def direct_product(
    L1: FiniteLattice, L2: FiniteLattice, caps: SizeCaps = DEFAULT_CAPS
) -> FiniteLattice:
    """Componentwise product lattice on pair labels."""
    n = L1.n * L2.n
    caps.check_matchings(n)
    labels = tuple(
        (L1.labels[a], L2.labels[b]) for a in range(L1.n) for b in range(L2.n)
    )
    covers: list[tuple[int, int]] = []
    for a in range(L1.n):
        for b in range(L2.n):
            k = a * L2.n + b
            for a2 in L1.poset.up_covers[a]:
                covers.append((k, a2 * L2.n + b))
            for b2 in L2.poset.up_covers[b]:
                covers.append((k, a * L2.n + b2))
    return lattice_from_poset(FinitePoset(labels, tuple(sorted(covers))))


# --- isomorphism ------------------------------------------------------------


def order_iso_refusal(
    P: FinitePoset, f: Sequence, is_cover: Callable, n_covers: int
) -> Optional[str]:
    """Why the bijection f from P onto an order Q with n_covers covers, where
    ``is_cover(a, b)`` says b covers a, is not an isomorphism; None if it is.

    An order is the transitive closure of its covers, so f preserves order
    once it sends each cover of P to a cover of Q.  f is injective, so those
    images are len(P.covers) distinct covers of Q; when Q has no others,
    f^-1 sends covers to covers too.  The caller checks f is a bijection.
    """
    for lo, hi in P.covers:
        if not is_cover(f[lo], f[hi]):
            return f"cover {P.labels[lo]!r} < {P.labels[hi]!r} does not map to a cover"
    if len(P.covers) != n_covers:
        return f"{len(P.covers)} covers map into an order with {n_covers}"
    return None


def digraph_isomorphic(
    n1: int,
    arcs1: Iterable[tuple[int, int]],
    n2: int,
    arcs2: Iterable[tuple[int, int]],
) -> Optional[list[int]]:
    """Backtracking digraph isomorphism with degree-refinement pruning.

    Returns a mapping (node of graph 1 -> node of graph 2) or None.  No
    polynomial-time guarantee; intended for small graphs.
    """
    A1 = set(arcs1)
    A2 = set(arcs2)
    if n1 != n2 or len(A1) != len(A2):
        return None
    out1: list[set[int]] = [set() for _ in range(n1)]
    in1: list[set[int]] = [set() for _ in range(n1)]
    out2: list[set[int]] = [set() for _ in range(n2)]
    in2: list[set[int]] = [set() for _ in range(n2)]
    for u, v in A1:
        out1[u].add(v)
        in1[v].add(u)
    for u, v in A2:
        out2[u].add(v)
        in2[v].add(u)

    # joint iterative refinement; colors are renamed to small integers
    # through a table shared by both graphs so they stay comparable
    def canon(values, table):
        out = []
        for v in values:
            if v not in table:
                table[v] = len(table)
            out.append(table[v])
        return out

    table: dict = {}
    c1 = canon([(len(out1[x]), len(in1[x])) for x in range(n1)], table)
    c2 = canon([(len(out2[x]), len(in2[x])) for x in range(n2)], table)
    for _ in range(n1):
        table = {}
        s1 = canon(
            [
                (
                    c1[x],
                    tuple(sorted(c1[y] for y in out1[x])),
                    tuple(sorted(c1[y] for y in in1[x])),
                )
                for x in range(n1)
            ],
            table,
        )
        s2 = canon(
            [
                (
                    c2[x],
                    tuple(sorted(c2[y] for y in out2[x])),
                    tuple(sorted(c2[y] for y in in2[x])),
                )
                for x in range(n2)
            ],
            table,
        )
        if len(set(s1)) == len(set(c1)) and len(set(s2)) == len(set(c2)):
            c1, c2 = s1, s2
            break
        c1, c2 = s1, s2
    if sorted(c1) != sorted(c2):
        return None

    # match most-constrained vertices first
    order = sorted(range(n1), key=lambda x: (c1.count(c1[x]), x))
    mapping = [-1] * n1
    used = [False] * n2

    def bt(i: int) -> bool:
        if i == n1:
            return True
        x = order[i]
        for y in range(n2):
            if used[y] or c1[x] != c2[y]:
                continue
            ok = True
            for z in range(n1):
                if mapping[z] < 0 or z == x:
                    continue
                if ((x, z) in A1) != ((y, mapping[z]) in A2):
                    ok = False
                    break
                if ((z, x) in A1) != ((mapping[z], y) in A2):
                    ok = False
                    break
            if ok:
                mapping[x] = y
                used[y] = True
                if bt(i + 1):
                    return True
                mapping[x] = -1
                used[y] = False
        return False

    return mapping if bt(0) else None


def poset_isomorphic(P1: FinitePoset, P2: FinitePoset) -> Optional[list[int]]:
    """Poset isomorphism via the Hasse-diagram digraphs."""
    return digraph_isomorphic(P1.n, P1.covers, P2.n, P2.covers)


@dataclass(frozen=True)
class IsoResult:
    isomorphic: bool
    mapping: Optional[tuple[int, ...]] = None
    refusal: Optional[str] = None


def lattice_isomorphic(L1: FiniteLattice, L2: FiniteLattice) -> IsoResult:
    """Isomorphism of distributive lattices through their join-irreducibles.

    By Birkhoff duality it suffices to match the join-irreducible
    subposets; the element map is lifted by joining irreducible images
    and verified, cover by cover, as an order isomorphism.
    """
    if L1.n != L2.n:
        return IsoResult(False, refusal=f"sizes differ: {L1.n} vs {L2.n}")
    if sorted(L1.rank) != sorted(L2.rank):
        return IsoResult(False, refusal="rank multisets differ")
    P1, idx1 = join_irreducibles(L1)
    P2, idx2 = join_irreducibles(L2)
    if P1.n != P2.n:
        return IsoResult(False, refusal="join-irreducible counts differ")
    pmap = poset_isomorphic(P1, P2)
    if pmap is None:
        return IsoResult(False, refusal="join-irreducible posets are not isomorphic")

    down = L1.poset.down_masks
    mapping: list[int] = []
    for x in range(L1.n):
        img = L2.bottom
        for k, p in enumerate(idx1):
            if down[x] >> p & 1:
                img = L2.join(img, idx2[pmap[k]])
        mapping.append(img)
    if len(set(mapping)) != L1.n:
        return IsoResult(False, refusal="lifted map is not a bijection")
    Q = L2.poset
    if order_iso_refusal(
        L1.poset, mapping, lambda a, b: b in Q.up_covers[a], len(Q.covers)
    ) is not None:
        return IsoResult(False, refusal="lifted map does not preserve order")
    return IsoResult(True, mapping=tuple(mapping))


def lattice_to_json(L: FiniteLattice) -> dict:
    out = L.poset.to_json()
    out["bottom"] = L.bottom
    out["top"] = L.top
    return out
