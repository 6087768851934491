"""Finite posets and distributive lattices.

Elements are indexed 0..n-1 with opaque labels; the order is stored as an
irredundant cover relation.  A lattice is its irreducible coordinates D[x],
the mask of join-irreducibles below x: x <= y when D[x] lies in D[y], the
meet is one lookup of ``D[x] & D[y]`` and the join is the dual's meet.
:func:`lattice_from_poset` builds every lattice so, once certified: a
distributive lattice by its Birkhoff coordinates in O(n |Irr|), any other
poset by the pair loop, which with :func:`is_distributive`'s triple loop is
also the oracle.  :func:`ideal_iso_refusal` is the one proof that a map
x -> d[x] is an isomorphism onto an ideal lattice J(Q), by covers alone; it
certifies lattices (Q = Irr, d = D) and ideal maps, and the product
decomposition reads its factors off D as intervals of L.  Lattice
isomorphism is one depth-first search on the principal down-sets, whose
maps :func:`order_iso_refusal` certifies.  Everything here is exhaustive
and exact: explicit complement search, order-ideal enumeration with bitmask
encoding, and factorization through connected components of the
join-irreducible subposet.  n-bit reachability masks serve only callers
that need them on an arbitrary poset; a graded one builds none.
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
        # raises on a directed cycle; irredundancy: no cover implied by a
        # chain of two or more covers, which raises the height by 2 at
        # least, so a graded poset tests none
        height = self.height
        for lo, hi in self.covers:
            if height[hi] - height[lo] > 1 and any(
                mid != hi and self.up_masks[mid] >> hi & 1 for mid in self.up_covers[lo]
            ):
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
    def height(self) -> tuple[int, ...]:
        """Per x the length of the longest chain from x down to a minimal
        element, by one first-in-first-out Kahn pass.  The queue takes the
        elements in order of height, so an element's height is one more
        than that of its lower cover taken last."""
        indeg = [len(d) for d in self.down_covers]
        h = [0] * self.n
        queue = [x for x in range(self.n) if not indeg[x]]
        for x in queue:
            for y in self.up_covers[x]:
                indeg[y] -= 1
                if not indeg[y]:
                    h[y] = h[x] + 1
                    queue.append(y)
        if len(queue) != self.n:
            raise ParseError("cover relation contains a directed cycle")
        return tuple(h)

    @cached_property
    def topo_order(self) -> tuple[int, ...]:
        """Deterministic linear extension: by height, then by index.  Every
        cover raises the height, so this extends the order."""
        return tuple(sorted(range(self.n), key=self.height.__getitem__))

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        """Bitmask of {y : x <= y} per element x."""
        masks = [1 << x for x in range(self.n)]
        for x in reversed(self.topo_order):
            for y in self.up_covers[x]:
                masks[x] |= masks[y]
        return tuple(masks)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        masks = [1 << x for x in range(self.n)]
        for x in self.topo_order:
            for y in self.up_covers[x]:
                masks[y] |= masks[x]
        return tuple(masks)

    @cached_property
    def irreducible_coordinates(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Irr (the elements with one lower cover) and per x the mask D[x] of
        Irr below x: bit k for irr[k]."""
        irr = tuple(x for x, d in enumerate(self.down_covers) if len(d) == 1)
        D = [0] * self.n
        for k, x in enumerate(irr):
            D[x] = 1 << k
        for x in self.topo_order:
            for y in self.up_covers[x]:
                D[y] |= D[x]
        return irr, tuple(D)

    @cached_property
    def irreducible_lower_covers(self) -> tuple[tuple[int, ...], ...]:
        """Per irreducible k, its lower covers in Irr ordered by D, as bit
        positions.

        The irreducibles strictly below irr[k] are D[y], y its one lower
        cover.  Each lower cover z of y lacks one irreducible of D[y], and
        in a distributive lattice these are its maximal ones, so they are
        read off P's covers.  That is checked: each lack is one bit, the
        bits are distinct and pairwise incomparable, and with what lies
        below them they make up D[y], so they are the maximal elements of
        D[y] in any poset.  If the check fails, P is no distributive
        lattice, and the covers come from the transitive reduction.
        """
        irr, D = self.irreducible_coordinates
        below = [D[self.down_covers[x][0]] for x in irr]
        lower: list[tuple[int, ...]] = []
        for x, b in zip(irr, below):
            lacks = [b & ~D[z] for z in self.down_covers[self.down_covers[x][0]]]
            tops = sum(lacks)
            if any(m.bit_count() != 1 for m in lacks) or tops.bit_count() != len(lacks):
                break
            ks = tuple(sorted(m.bit_length() - 1 for m in lacks))
            reach = 0
            for k in ks:
                reach |= below[k] | 1 << k
            if reach != b or any(below[k] & tops for k in ks):
                break
            lower.append(ks)
        else:
            return tuple(lower)
        reduced: list[list[int]] = [[] for _ in irr]
        for k, i in _reduction(below):  # i covers k in the reversed order
            reduced[k].append(i)
        return tuple(tuple(ks) for ks in reduced)

    @cached_property
    def birkhoff_refusal(self) -> Optional[str]:
        """Why x -> D[x] is not an isomorphism onto J(Irr); None when it is,
        and then P is a distributive lattice (Birkhoff).  Irr is ordered by
        D, so the irreducibles strictly below i are D of i's lower cover;
        its covers are :attr:`irreducible_lower_covers`."""
        irr, D = self.irreducible_coordinates
        below = [D[self.down_covers[x][0]] for x in irr]
        up: list[list[int]] = [[] for _ in irr]
        for k, ks in enumerate(self.irreducible_lower_covers):
            for i in ks:
                up[i].append(k)
        return ideal_iso_refusal(self, D, below, up)

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
        """Induced subposet, reduced from all n^2 pairs: a test oracle."""
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
    return FinitePoset(tuple(labels), tuple(sorted(_reduction(lt))))


def _reduction(lt: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Pairs (x, t), t covering x, of the strict order with up-masks lt."""
    for x, m in enumerate(lt):
        beyond = 0
        for z in _bits(m):
            beyond |= lt[z]
        for t in _bits(m & ~beyond):
            yield x, t


def chain_poset(k: int) -> FinitePoset:
    labels = tuple(str(i) for i in range(k))
    return FinitePoset(labels, tuple((i, i + 1) for i in range(k - 1)))


def grid_poset(m: int, n: int) -> FinitePoset:
    """Product of an m-chain and an n-chain on labels (i, j), 1-based."""
    return young_poset((n,) * m)


def young_poset(rows: Sequence[int]) -> FinitePoset:
    """Cells (i, j), 1-based, j <= rows[i - 1], ordered componentwise.

    With non-increasing rows the shape is an order ideal of the full grid,
    so its covers are the grid's unit steps that stay inside it.
    """
    labels = tuple(
        (i, j) for i, r in enumerate(rows, 1) for j in range(1, r + 1)
    )
    pos = {lab: k for k, lab in enumerate(labels)}
    covers = [
        (pos[(i, j)], pos[up])
        for i, j in labels
        for up in ((i + 1, j), (i, j + 1))
        if up in pos
    ]
    return FinitePoset(labels, tuple(sorted(covers)))


# --- lattices ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiniteLattice:
    """Finite lattice: a poset with 0/1 elements, read off the mask D[x] of
    join-irreducibles below x.  In any finite lattice j <= x ^ y exactly when
    j <= x and j <= y, and x is the join of D[x], so D is injective and
    D[x ^ y] = D[x] & D[y].  The join is the meet of the dual lattice."""

    poset: FinitePoset
    bottom: int
    top: int

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def labels(self) -> tuple:
        return self.poset.labels

    @cached_property
    def _by_coordinates(self) -> dict[int, int]:
        return {m: x for x, m in enumerate(self.poset.irreducible_coordinates[1])}

    @cached_property
    def _dual(self) -> "FiniteLattice":
        # the dual holds no reference to self, so the two form no reference cycle
        return FiniteLattice(self.poset.dual(), self.top, self.bottom)

    def leq(self, x: int, y: int) -> bool:
        D = self.poset.irreducible_coordinates[1]
        return D[x] & ~D[y] == 0

    def meet(self, x: int, y: int) -> int:
        D = self.poset.irreducible_coordinates[1]
        return self._by_coordinates[D[x] & D[y]]

    def join(self, x: int, y: int) -> int:
        return self._dual.meet(x, y)

    @property
    def rank(self) -> tuple[int, ...]:
        """Longest-chain height from the bottom element."""
        return self.poset.height


def lattice_from_poset(P: FinitePoset) -> FiniteLattice:
    """P as a lattice, the one way every lattice is built; raise NotALattice
    with a witness pair if it is none.  A distributive lattice passes its
    Birkhoff certificate (``P.birkhoff_refusal`` is None); any other poset
    must first pass the pair loop."""
    if P.birkhoff_refusal is not None:
        _lattice_by_pairs(P)
    return FiniteLattice(P, P.topo_order[0], P.topo_order[-1])


def ideal_iso_refusal(
    P: FinitePoset,
    d: Sequence[int],
    below: Sequence[int],
    up: Sequence[Sequence[int]],
) -> Optional[str]:
    """Why x -> d[x] (a mask over Q) is not an isomorphism of P onto J(Q),
    where below[q] masks the elements strictly below q and up[q] lists the
    upper covers of q; None if it is.

    Accepts when each cover adds to d one q whose below[q] it holds, P's one
    minimal element goes to the empty ideal, d is injective, and each x has
    as many upper covers as q outside d[x] with below[q] inside it.  Up from
    the empty ideal each d[x] is then an ideal, each ideal is some d[x] (less
    a maximal q it is some d[x'], and x' has a cover per q it can gain), and
    both orders have as many covers, so d^-1 sends covers to covers too.

    The count of q that d[x] can gain is carried along one lower cover lo
    of x, which adds q: d[x] gains what d[lo] gains but q, and the upper
    covers r of q with below[r] inside d[x].  No other r is new, since an
    r above q that covers some s > q would need s, so q, in d[lo].  That
    is O(n deg Q) in all.
    """
    for lo, hi in P.covers:
        add = d[hi] ^ d[lo]
        if add & d[lo] or add.bit_count() != 1 or below[add.bit_length() - 1] & ~d[lo]:
            return f"cover {P.labels[lo]!r} < {P.labels[hi]!r} does not map to a cover"
    if len(P.minimal_elements) != 1:
        return f"{len(P.minimal_elements)} minimal elements, not one"
    least = P.minimal_elements[0]
    if d[least]:
        return f"least element {P.labels[least]!r} does not map to the empty ideal"
    first: dict[int, int] = {}
    for x, m in enumerate(d):
        if first.setdefault(m, x) != x:
            return f"elements {P.labels[first[m]]!r} and {P.labels[x]!r} have one image"
    gains = [0] * P.n
    gains[least] = sum(b == 0 for b in below)
    for x in P.topo_order[1:]:  # the least comes first
        lo = P.down_covers[x][0]
        m = d[x]
        q = (m ^ d[lo]).bit_length() - 1
        gains[x] = gains[lo] - 1 + sum(below[r] & ~m == 0 for r in up[q])
    for x, (g, ups) in enumerate(zip(gains, P.up_covers)):
        if len(ups) != g:
            return f"element {P.labels[x]!r} has {len(ups)} upper covers, its ideal {g}"
    return None


def _lattice_by_pairs(P: FinitePoset) -> None:
    """The pair loop, for posets the certificate refuses: raise NotALattice
    unless every pair has a meet and a join.  The common lower bounds of x
    and y form the down-set of some z exactly when z = x ^ y, so the meet
    exists when ``down[x] & down[y]`` is a principal down-set; joins
    likewise with up-sets.
    """
    down, up = P.down_masks, P.up_masks
    principal_down, principal_up = set(down), set(up)

    def missing(x: int, y: int, bounds: int, what: str) -> NotALattice:
        unique = "unique " if bounds else ""  # no principal set is empty
        return NotALattice(f"elements {P.labels[x]!r}, {P.labels[y]!r} have no {unique}{what}")

    for x in range(P.n):
        for y in range(x, P.n):
            lower, upper = down[x] & down[y], up[x] & up[y]
            if lower not in principal_down:
                raise missing(x, y, lower, "meet")
            if upper not in principal_up:
                raise missing(x, y, upper, "join")
    if len(P.minimal_elements) != 1 or len(P.maximal_elements) != 1:
        raise NotALattice("lattice must have unique minimal and maximal elements")


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
    return GridSublattice(elements=tuple(tuple(row) for row in grid))


def join_irreducibles(L: FiniteLattice) -> tuple[FinitePoset, tuple[int, ...]]:
    """Subposet of non-bottom elements with exactly one lower cover.

    Returns the subposet and the lattice indices of its elements (in the
    subposet's element order).  The covers are
    :attr:`FinitePoset.irreducible_lower_covers` of L's poset.
    """
    irr = L.poset.irreducible_coordinates[0]
    lower = L.poset.irreducible_lower_covers
    covers = sorted((i, k) for k, ks in enumerate(lower) for i in ks)
    return FinitePoset(tuple(L.labels[x] for x in irr), tuple(covers)), irr


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
            if m & P.up_masks[x] == 1 << x:
                covers.append((index[m & ~(1 << x)], k))
    # each (ideal, removed maximal element) pair is a distinct cover
    poset = FinitePoset(tuple(masks), tuple(sorted(covers)))
    return lattice_from_poset(poset), masks


def _enumerate_ideals(P: FinitePoset, cap: int) -> tuple[int, ...]:
    """All down-sets of P by size, DFS over a fixed linear extension, as
    bitmasks.

    The search runs on an explicit stack of (position, ideal, forbidden
    mask): a recursive one would go as deep as P is tall, and its closure
    would be a reference cycle.
    """
    ext = P.topo_order
    out: list[int] = []
    todo = [(0, 0, 0)]
    while todo:
        i, mask, forbidden = todo.pop()
        if i == len(ext):
            if len(out) >= cap:
                raise SizeCapExceeded(f"more than {cap} order ideals")
            out.append(mask)
            continue
        x = ext[i]
        # exclude x: everything above x is excluded too
        todo.append((i + 1, mask, forbidden | P.up_masks[x]))
        # include x if allowed and its strict down-set is already in
        if not (forbidden >> x & 1) and (P.down_masks[x] & ~(1 << x)) & ~mask == 0:
            todo.append((i + 1, mask | (1 << x), forbidden))
    return tuple(sorted(out, key=int.bit_count))


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Irreducible direct-product decomposition of a distributive lattice."""

    factors: tuple[FiniteLattice, ...]
    product_iso: tuple[tuple[int, ...], ...]  # element index -> factor indices
    factor_irreducibles: tuple[tuple[Hashable, ...], ...]


@per_object
def irreducible_decomposition(L: FiniteLattice) -> Decomposition:
    """Factor L as the product of J(P_c) over components P_c of its
    join-irreducible subposet, read off the coordinates D.

    L's Birkhoff certificate proves that D is an isomorphism onto J(Irr),
    and J of a disjoint union is the product of the J(P_c), so factor c is
    the interval of L whose D lies in P_c, and x's coordinate in it is the
    position of D[x] restricted to P_c.  The interval is in the order in
    which :func:`order_ideal_lattice` lists J(P_c): by |D|, then members
    first along the linear extension ``topo_order``, which P_c inherits
    from Irr (a height lies inside its component).  A lattice
    the certificate refuses raises ProductMismatch.  Computed once per
    lattice object; :func:`central_elements` reuses it.
    """
    refusal = L.poset.birkhoff_refusal
    if refusal is not None:
        raise ProductMismatch(refusal)
    P, _ = join_irreducibles(L)
    # components come in order of their smallest member, so of lattice index
    comps = P.components
    irr_labels = tuple(tuple(P.labels[p] for p in comp) for comp in comps)
    if len(comps) == 1:
        # a fresh lattice object: L itself here would put L in its own memo
        F = FiniteLattice(L.poset, L.bottom, L.top)
        return Decomposition((F,), tuple((x,) for x in range(L.n)), irr_labels)

    D = L.poset.irreducible_coordinates[1]
    up = L.poset.up_covers
    masks = [sum(1 << p for p in comp) for comp in comps]
    factors: list[FiniteLattice] = []
    coordinate: list[dict[int, int]] = []
    for mask in masks:
        along = [p for p in P.topo_order if mask >> p & 1]
        xs = sorted(
            (x for x in range(L.n) if D[x] & ~mask == 0),
            key=lambda x: (D[x].bit_count(), [not D[x] >> p & 1 for p in along]),
        )
        pos = {D[x]: k for k, x in enumerate(xs)}
        covers = sorted(
            (k, pos[D[y]]) for k, x in enumerate(xs) for y in up[x] if D[y] in pos
        )
        interval = FinitePoset(tuple(L.labels[x] for x in xs), tuple(covers))
        factors.append(FiniteLattice(interval, 0, len(xs) - 1))
        coordinate.append(pos)
    iso = tuple(tuple(pos[d & m] for pos, m in zip(coordinate, masks)) for d in D)
    return Decomposition(tuple(factors), iso, irr_labels)


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


def poset_isomorphic(P1: FinitePoset, P2: FinitePoset) -> Optional[list[int]]:
    """An order isomorphism from P1 onto P2 (element of P1 -> element of P2),
    or None when there is none.

    Places P1's elements in topological order, depth first over an explicit
    stack of candidate iterators.  Each x goes to an unused y of equal up-set
    size whose strict down-set is the union of the down-sets of the images
    of x's lower covers, found by one dict lookup.  By induction the map
    sends the down-set of every x onto that of its image, so a bijection
    built this way preserves and reflects the order.  Every isomorphism
    passes these tests, so the search is complete; its worst case is
    exponential.
    """
    n = P1.n
    if n != P2.n or len(P1.covers) != len(P2.covers):
        return None
    down2 = P2.down_masks
    by_strict_down: dict[int, list[int]] = {}
    for y, m in enumerate(down2):
        by_strict_down.setdefault(m ^ 1 << y, []).append(y)
    up_size1 = [m.bit_count() for m in P1.up_masks]
    up_size2 = [m.bit_count() for m in P2.up_masks]
    order = P1.topo_order
    mapping = [-1] * n
    used = 0
    todo: list[Iterator[int]] = []  # candidates for order[0], ..., order[k]
    k = 0
    while 0 <= k < n:
        x = order[k]
        if mapping[x] < 0:  # arrived from order[k - 1]: list x's candidates
            below = 0
            for z in P1.down_covers[x]:
                below |= down2[mapping[z]]
            todo.append(iter([
                y for y in by_strict_down.get(below, ())
                if not used >> y & 1 and up_size2[y] == up_size1[x]
            ]))
        else:  # back from a dead end at order[k + 1]: free x's image
            used ^= 1 << mapping[x]
        mapping[x] = next(todo[-1], -1)
        if mapping[x] < 0:
            todo.pop()
            k -= 1
        else:
            used |= 1 << mapping[x]
            k += 1
    return mapping if k == n else None


@dataclass(frozen=True)
class IsoResult:
    isomorphic: bool
    mapping: Optional[tuple[int, ...]] = None
    refusal: Optional[str] = None


def lattice_isomorphic(L1: FiniteLattice, L2: FiniteLattice) -> IsoResult:
    """Isomorphism of finite lattices, as an order isomorphism of their posets.

    A bijection of lattices that preserves and reflects the order preserves
    meet and join, so :func:`poset_isomorphic` finds the map and
    :func:`order_iso_refusal` certifies it, cover by cover.
    """
    if L1.n != L2.n:
        return IsoResult(False, refusal=f"sizes differ: {L1.n} vs {L2.n}")
    if sorted(L1.rank) != sorted(L2.rank):
        return IsoResult(False, refusal="rank multisets differ")
    mapping = poset_isomorphic(L1.poset, L2.poset)
    if mapping is None:
        return IsoResult(False, refusal="no order isomorphism")
    Q = L2.poset
    refusal = order_iso_refusal(
        L1.poset, mapping, lambda a, b: b in Q.up_covers[a], len(Q.covers)
    )
    if len(set(mapping)) != L1.n or refusal is not None:
        raise AssertionError(f"bad isomorphism: {refusal or 'not a bijection'}")
    return IsoResult(True, mapping=tuple(mapping))


def lattice_to_json(L: FiniteLattice) -> dict:
    out = L.poset.to_json()
    out["bottom"] = L.bottom
    out["top"] = L.top
    return out
