"""Exhaustive verification suites over the generated witness families.

Each check is exact: counts against closed forms, certified isomorphisms,
and cross-checks against independent brute-force oracles.  The CLI
exposes the suites; the acceptance tests assert them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache
from math import comb
from typing import Callable, Optional, Sequence

from .caps import DEFAULT_CAPS, SizeCaps
from .errors import MatchlatError, SizeCapExceeded
from .generators import (
    OrientedTree,
    TruncatedParallelogram,
    TruncatedParallelogramSpec,
    hexagon_poset,
    link_components,
    parallelogram_spec,
    prolate_triangle_spec,
    tree_to_outerplane,
    truncated_parallelogram,
    verify_iso_parallelogram,
)
from .lattice import (
    FiniteLattice,
    central_elements,
    chain_poset,
    complements,
    direct_product,
    grid_poset,
    grid_sublattice,
    irreducible_decomposition,
    is_distributive,
    join_irreducibles,
    lattice_from_poset,
    lattice_isomorphic,
    order_ideal_lattice,
    rank_check,
)
from .matching import (
    IMPROPER,
    PROPER,
    _flip_walk,
    all_alternating_cycles,
    enumerate_perfect_matchings,
)
from .oracles import (
    alternating_cycles_dfs,
    count_matchings_bruteforce,
    distributive_by_birkhoff,
    ideals_bruteforce,
)
from .plane_graph import PlaneBipartiteGraph, find_e_cuts, mask_edge_ids
from .ztransform import (
    _delta_counts,
    _path_face_counts,
    build_z_digraph,
    directed_paths,
    extremal_matchings,
    matching_lattice,
    matching_poset,
    verify_iso_matchings_ideals,
)


@dataclass
class CheckResult:
    claim_id: str
    status: str  # "pass" or "fail"
    witness: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class VerificationReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def n_fail(self) -> int:
        return len(self.checks) - self.n_pass

    @property
    def passed(self) -> bool:
        return self.n_fail == 0

    def add(self, claim_id: str, fn: Callable[[], Optional[str]]) -> None:
        self.checks.append(_checked(claim_id, fn))

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "totals": {"pass": self.n_pass, "fail": self.n_fail},
            "checks": [
                {"claim": c.claim_id, "status": c.status, "witness": c.witness}
                for c in self.checks
            ],
        }

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            line = f"[{mark}] {c.claim_id}"
            if c.witness:
                line += f"  <- {c.witness}"
            lines.append(line)
        lines.append(
            f"suite {self.suite}: {self.n_pass} passed, {self.n_fail} failed"
        )
        return "\n".join(lines)


def _witnessed(fn: Callable[[], Optional[str]]) -> Optional[str]:
    """Run fn; a raised error or returned message is a failure witness.

    A size cap that binds is no failure of the claim: it propagates.
    """
    try:
        return fn()
    except SizeCapExceeded:
        raise
    except MatchlatError as exc:
        return f"{type(exc).__name__}: {exc}"
    except AssertionError as exc:
        return f"assertion: {exc}"


def _checked(claim_id: str, fn: Callable[[], Optional[str]]) -> CheckResult:
    witness = _witnessed(fn)
    return CheckResult(claim_id, "pass" if witness is None else "fail", witness)


# --- suite sizes ----------------------------------------------------------------

MAX_HEXAGONS = 10  # row profiles of at most this many hexagons: 138 of them
MAX_FLIP_PATHS = 10_000  # directed flip paths per pair of matchings
MAX_TREE_NODES = 6  # tree shapes on 1..6 nodes, as listed in _TREES_UP_TO_6
MAX_ORIENTATIONS = 32  # orientations per tree shape, sampled evenly above it


# --- shared fixture graphs ---------------------------------------------------


def _hexagon(caps: SizeCaps) -> PlaneBipartiteGraph:
    return truncated_parallelogram(TruncatedParallelogramSpec((1,)), caps).graph


def _small_fixtures(caps: SizeCaps) -> list[tuple[str, PlaneBipartiteGraph]]:
    out = [
        ("C6", _hexagon(caps)),
        ("L(2;1)", truncated_parallelogram(parallelogram_spec(2, 1), caps).graph),
        ("L(2;2)", truncated_parallelogram(parallelogram_spec(2, 2), caps).graph),
        ("T_2", truncated_parallelogram(prolate_triangle_spec(2), caps).graph),
        ("T_3", truncated_parallelogram(prolate_triangle_spec(3), caps).graph),
        ("L(3;2)", truncated_parallelogram(parallelogram_spec(3, 2), caps).graph),
        ("L(3;3)", truncated_parallelogram(parallelogram_spec(3, 3), caps).graph),
    ]
    linked = link_components([_hexagon(caps),
                              truncated_parallelogram(parallelogram_spec(2, 1), caps).graph],
                             caps)
    out.append(("C6+L(2;1) linked", linked.graph))
    tree = OrientedTree((1, 2, 3), ((1, 2), (3, 2)))
    out.append(("tree a>b<c", tree_to_outerplane(tree, caps=caps).graph))
    return out


def _all_profiles(max_hexagons: int) -> list[tuple[int, ...]]:
    """All non-increasing positive row profiles with at most the given total."""
    out: list[tuple[int, ...]] = []
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        if prefix:
            out.append(prefix)
        top = min(prefix[-1] if prefix else max_hexagons, max_hexagons - sum(prefix))
        stack.extend(prefix + (r,) for r in range(1, top + 1))  # largest popped first
    out.sort(key=lambda rows: (sum(rows), rows))
    return out


_TREES_UP_TO_6: dict[int, list[tuple[tuple[int, int], ...]]] = {
    1: [()],
    2: [((1, 2),)],
    3: [((1, 2), (2, 3))],
    4: [
        ((1, 2), (2, 3), (3, 4)),
        ((1, 2), (1, 3), (1, 4)),
    ],
    5: [
        ((1, 2), (2, 3), (3, 4), (4, 5)),
        ((1, 2), (1, 3), (1, 4), (1, 5)),
        ((1, 2), (2, 3), (3, 4), (2, 5)),
    ],
    6: [
        ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6)),
        ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6)),
        ((1, 2), (2, 3), (3, 4), (4, 5), (2, 6)),
        ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)),
        ((1, 2), (1, 3), (1, 4), (4, 5), (4, 6)),
        ((1, 2), (1, 3), (1, 4), (1, 5), (5, 6)),
    ],
}


def _orientations(edges: Sequence[tuple[int, int]], limit: int):
    """All orientations of a tree edge list, up to a sampling limit."""
    n = len(edges)
    total = 1 << n
    if total <= limit:
        picks = range(total)
    else:
        picks = range(0, total, total // limit)
    for mask in picks:
        yield tuple(
            (u, v) if not mask >> k & 1 else (v, u)
            for k, (u, v) in enumerate(edges)
        )


# --- acceptance criteria ------------------------------------------------------


def check_counting(report: VerificationReport, caps: SizeCaps) -> None:
    """Matching counts of parallelograms and staircase profiles vs closed forms."""
    for m in range(1, 5):
        for n in range(1, 5):
            def fn(m=m, n=n) -> Optional[str]:
                G = truncated_parallelogram(parallelogram_spec(m, n), caps).graph
                got = len(enumerate_perfect_matchings(G))
                want = comb(m + n, m)
                return None if got == want else f"got {got}, want {want}"

            report.add(f"count L({m};{n}) = C({m + n},{m})", fn)
    for m in range(1, 5):
        def fn(m=m) -> Optional[str]:
            G = truncated_parallelogram(prolate_triangle_spec(m), caps).graph
            got = len(enumerate_perfect_matchings(G))
            want = comb(2 * m + 2, m + 1) // (m + 2)
            return None if got == want else f"got {got}, want {want}"

        report.add(f"count T_{m} = Catalan", fn)


def check_parallelogram_profiles(report: VerificationReport, caps: SizeCaps) -> None:
    """Every small row profile: M(H) = J(F(H)), and elementary H gives an
    irreducible M(H) with only its extremes complemented.

    One pass builds each host once for both claims and drops it before
    the next profile.  A build that raises is not kept, so it raises again
    and fails the second claim with the same witness.  The report lists
    every isomorphism claim before the first irreducibility claim.
    """
    iso: list[CheckResult] = []
    irreducible: list[CheckResult] = []
    for rows in _all_profiles(MAX_HEXAGONS):
        spec = TruncatedParallelogramSpec(rows)
        host = cache(lambda: truncated_parallelogram(spec, caps))
        iso.append(_checked(f"iso M(H) = J(F(H)) for rows {rows}",
                            lambda: _parallelogram_iso(host())))
        irreducible.append(_checked(f"irreducible M(H) for rows {rows}",
                                    lambda: _irreducibility_refusal(host().graph)))
    report.checks += iso + irreducible


def _parallelogram_iso(H: TruncatedParallelogram) -> None:
    verify_iso_parallelogram(H)


def _irreducibility_refusal(G: PlaneBipartiteGraph) -> Optional[str]:
    L = matching_lattice(G)
    if central_elements(L):
        return "central elements found"
    comp = complements(L)
    extra = [
        x for x, y in comp.items()
        if y is not None and x not in (L.bottom, L.top)
    ]
    if extra:
        return f"non-extremal complemented elements {extra}"
    return None


def check_link_decomposition(report: VerificationReport, caps: SizeCaps) -> None:
    """Linked components: product lattice and recovered factor multiset."""
    parts = {
        "C6": TruncatedParallelogramSpec((1,)),
        "L(2;1)": parallelogram_spec(2, 1),
        "L(2;2)": parallelogram_spec(2, 2),
    }
    names = sorted(parts)
    combos = [
        c
        for k in (2, 3)
        for c in itertools.combinations_with_replacement(names, k)
    ]
    for combo in combos:
        def fn(combo=combo) -> Optional[str]:
            graphs = [
                truncated_parallelogram(parts[name], caps).graph for name in combo
            ]
            factors = [matching_lattice(G) for G in graphs]
            linked = link_components(graphs, caps)
            L = matching_lattice(linked.graph)

            expected = factors[0]
            for F in factors[1:]:
                expected = direct_product(expected, F, caps)
            if not lattice_isomorphic(L, expected).isomorphic:
                return "linked lattice is not the product of the factors"

            dec = irreducible_decomposition(L)
            got_sizes = sorted(F.n for F in dec.factors)
            want_sizes = sorted(F.n for F in factors)
            if got_sizes != want_sizes:
                return f"factor sizes {got_sizes} != {want_sizes}"
            # exact multiset match up to isomorphism
            remaining = list(dec.factors)
            for F in factors:
                hit = next(
                    (k for k, D in enumerate(remaining)
                     if lattice_isomorphic(F, D).isomorphic),
                    None,
                )
                if hit is None:
                    return "factor multiset not recovered"
                remaining.pop(hit)
            return None

        report.add("link " + "+".join(combo), fn)


def check_delta_path_invariance(report: VerificationReport, caps: SizeCaps) -> None:
    """Face multiplicity along any flip path equals the signed cycle count."""
    for name, G in _small_fixtures(caps):
        def fn(G=G) -> Optional[str]:
            P = matching_poset(G)
            inner = G.inner_face_ids
            for i in range(P.n):
                for j in range(P.n):
                    if i == j or not P.leq(j, i):
                        continue
                    # one decomposition per pair and one walk per path
                    # give every face's count
                    deltas = _delta_counts(G, P.labels[i], P.labels[j])
                    for path in directed_paths(G, i, j, cap=MAX_FLIP_PATHS):
                        flips = _path_face_counts(G, path)
                        for f in inner:
                            want = deltas.get(f, 0)
                            if flips.get(f, 0) != want:
                                return (
                                    f"path {path} face {f}: multiplicity "
                                    f"!= {want}"
                                )
            return None

        report.add(f"delta = path multiplicity on {name}", fn)


def check_outerplane(report: VerificationReport, caps: SizeCaps) -> None:
    """Tree realizations: dual recovery, e-cut hits, simple flips, ideal iso."""
    for n in range(1, MAX_TREE_NODES + 1):
        for shape_k, edges in enumerate(_TREES_UP_TO_6[n]):
            def fn(n=n, edges=edges) -> Optional[str]:
                failures: list[str] = []
                for count, arcs in enumerate(_orientations(edges, MAX_ORIENTATIONS), 1):
                    tree = OrientedTree(tuple(range(1, n + 1)), arcs)
                    msg = _witnessed(
                        lambda: _outerplane_case(tree_to_outerplane(tree, caps=caps).graph)
                    )
                    if msg is not None:
                        failures.append(f"{arcs}: {msg}")
                if failures:
                    return f"{len(failures)}/{count} orientations failed: " + failures[0]
                return None

            report.add(f"outerplane tree n={n} shape {shape_k}", fn)


def _outerplane_case(G: PlaneBipartiteGraph) -> Optional[str]:
    masks = _flip_walk(G).masks
    for cut in find_e_cuts(G):
        # the first hit count other than 1, found by map and filter at C
        # speed: the suite tests some 110,000 (cut, matching) pairs
        meets = map(int.bit_count, map(cut.__and__, masks))
        hits = next(filter((1).__ne__, meets), 1)
        if hits != 1:
            return f"e-cut {mask_edge_ids(G.n_edges, cut)} meets a matching {hits} times"
    ext = extremal_matchings(G)
    # the extremes' certificate: the source has no improper alternating
    # cycle and the root no proper one
    extremes = (("source", ext.source, IMPROPER), ("root", ext.root, PROPER))
    for name, M, wrong in extremes:
        if any(r.orientation_class == wrong for r in all_alternating_cycles(G, M)):
            return f"{name} matching has a {wrong} alternating cycle"
    face_of = build_z_digraph(G).face_of
    inner = set(G.inner_face_ids)
    each_once = sorted(inner)
    iso = verify_iso_matchings_ideals(G)
    F = iso.face_poset
    pos = {f: i for i, f in enumerate(F.labels)}
    below = [
        (f, g)
        for f in inner
        for g in inner
        if f != g and F.leq(pos[f], pos[g])
    ]
    for path in directed_paths(G, ext.source_index, ext.root_index, cap=20_000):
        faces = [face_of[(a, b)] for a, b in zip(path, path[1:])]
        if sorted(faces) != each_once:
            return "maximal path does not flip each face exactly once"
        when = {f: k for k, f in enumerate(faces)}
        # a lower face always flips after every face above it
        for f, g in below:
            if when[f] < when[g]:
                return f"face {f} below {g} flipped before it"
    return None


def check_grid_sublattice(report: VerificationReport, caps: SizeCaps) -> None:
    """Complementary pairs in product lattices span certified grids."""
    chain = lambda k: lattice_from_poset(chain_poset(k))
    tests = {
        "2x3": direct_product(chain(2), chain(3), caps),
        "2x2": direct_product(chain(2), chain(2), caps),
        "3x4": direct_product(chain(3), chain(4), caps),
        "2x2x2": direct_product(direct_product(chain(2), chain(2), caps), chain(2), caps),
        "J(2x2)x2": direct_product(
            order_ideal_lattice(grid_poset(2, 2), caps)[0], chain(2), caps
        ),
    }
    for name, L in tests.items():
        def fn(L=L) -> Optional[str]:
            comp = complements(L)
            rank = L.rank
            k = rank[L.top]
            found = 0
            for x, y in comp.items():
                if y is None or x in (L.bottom, L.top):
                    continue
                found += 1
                for cx in _saturated_chains(L, x, limit=6):
                    for cy in _saturated_chains(L, y, limit=6):
                        grid = grid_sublattice(L, x, y, cx, cy)
                        r, s = rank[x], rank[y]
                        if r + s != k:
                            return f"complementary ranks {r}+{s} != {k}"
                        if (len(grid.elements), len(grid.elements[0])) != (
                            r + 1,
                            s + 1,
                        ):
                            return "grid dimensions mismatch"
            if found == 0:
                return "no non-extremal complementary pair in a product lattice"
            return None

        report.add(f"grid sublattice in {name}", fn)


def _saturated_chains(L: FiniteLattice, x: int, limit: int) -> list[list[int]]:
    """Some saturated chains from the bottom to x (all of them if few)."""
    chains: list[list[int]] = []
    stack: list[tuple[int, list[int]]] = [(x, [])]  # (element, chain above it)
    while stack and len(chains) < limit:
        here, acc = stack.pop()
        acc = acc + [here]
        if here == L.bottom:
            chains.append(acc[::-1])
        else:
            stack.extend((lo, acc) for lo in reversed(L.poset.down_covers[here]))
    return chains


def check_structural_invariants(report: VerificationReport, caps: SizeCaps) -> None:
    """Acyclicity, cover certification, Birkhoff round trips, oracle agreement."""
    fixtures = _small_fixtures(caps)

    def z_ok() -> Optional[str]:
        for name, G in fixtures:
            matching_poset(G)  # raises on cycles or transitive arcs
        return None

    report.add("flip digraph acyclic with covers = arcs", z_ok)

    def birkhoff() -> Optional[str]:
        for name, G in fixtures:
            L = matching_lattice(G)
            P, _ = join_irreducibles(L)
            J, _ = order_ideal_lattice(P, caps)
            if not lattice_isomorphic(L, J).isomorphic:
                return f"round trip failed on {name}"
            rank_check(L)
        return None

    report.add("Birkhoff round trip J(Irr(L)) = L", birkhoff)

    def matching_oracle() -> Optional[str]:
        for name, G in fixtures:
            if G.n_vertices > 20:
                continue
            got = len(enumerate_perfect_matchings(G))
            want = count_matchings_bruteforce(G)
            if got != want:
                return f"{name}: {got} != brute force {want}"
        return None

    report.add("matching count vs edge-subset recursion (V <= 20)", matching_oracle)

    def ideal_oracle() -> Optional[str]:
        posets = [
            chain_poset(1),
            chain_poset(4),
            grid_poset(2, 2),
            grid_poset(2, 3),
            grid_poset(3, 3),
            hexagon_poset(prolate_triangle_spec(2)),
            hexagon_poset(TruncatedParallelogramSpec((3, 1))),
        ]
        for P in posets:
            if P.n > 12:
                continue
            _, masks = order_ideal_lattice(P, caps)
            if set(masks) != ideals_bruteforce(P):
                return f"ideal sets differ on poset with {P.n} elements"
        return None

    report.add("ideal enumeration vs subset filter (<= 12 elements)", ideal_oracle)

    def distributivity_oracle() -> Optional[str]:
        for name, G in fixtures:
            L = matching_lattice(G)
            ok, _ = is_distributive(L)
            if ok != distributive_by_birkhoff(L):
                return f"distributivity checks disagree on {name}"
            if not ok:
                return f"{name} gave a non-distributive matching lattice"
        return None

    report.add("triple-loop distributivity vs Birkhoff check", distributivity_oracle)

    def alternating_oracle() -> Optional[str]:
        for name, G in fixtures:
            if G.n_vertices > 20:
                continue
            for M in enumerate_perfect_matchings(G):
                got = {r.edge_set for r in all_alternating_cycles(G, M)}
                want = alternating_cycles_dfs(G, M)
                if got != want:
                    return f"{name}: alternating cycle sets differ"
        return None

    report.add("alternating cycles vs DFS oracle (V <= 20)", alternating_oracle)


SUITES = {
    "core": (check_delta_path_invariance, check_structural_invariants),
    "parallelogram": (check_counting, check_parallelogram_profiles),
    "outerplane": (check_outerplane,),
    "decomposition": (check_link_decomposition, check_grid_sublattice),
}


def run_suite(name: str, caps: SizeCaps = DEFAULT_CAPS) -> VerificationReport:
    if name != "all" and name not in SUITES:
        raise MatchlatError(f"unknown suite {name!r}")
    report = VerificationReport(suite=name)
    for suite in SUITES if name == "all" else (name,):
        for check in SUITES[suite]:
            check(report, caps)
    return report
