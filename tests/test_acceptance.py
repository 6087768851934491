"""Acceptance criteria, one test per criterion.

Every check is exact (counts, certified isomorphisms, oracle agreement);
criteria with stated runtime budgets assert them.  Each test prints one
PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

from matchlat.caps import DEFAULT_CAPS
from matchlat.verify import (
    VerificationReport,
    check_counting,
    check_delta_path_invariance,
    check_grid_sublattice,
    check_irreducibility,
    check_link_decomposition,
    check_outerplane,
    check_parallelogram_iso,
    check_structural_invariants,
)


def _run(name, check, budget=None):
    report = VerificationReport(suite=name)
    start = time.perf_counter()
    check(report, DEFAULT_CAPS)
    elapsed = time.perf_counter() - start
    status = "PASS" if report.passed else "FAIL"
    print(
        f"[{status}] {name}: {report.n_pass}/{len(report.checks)} checks "
        f"in {elapsed:.1f}s"
    )
    for c in report.checks:
        if not c.passed:
            print(f"    failed: {c.claim_id}  <- {c.witness}")
    assert report.passed, f"{name}: {report.n_fail} checks failed"
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    return report


def test_criterion_1_counting():
    """Parallelogram and staircase matching counts equal the closed forms."""
    report = _run("criterion 1: counting", check_counting, budget=10.0)
    assert len(report.checks) == 20  # 16 parallelograms + 4 staircases


def test_criterion_2_parallelogram_isomorphism():
    """Certified lattice/ideal isomorphism for every profile up to 10 hexagons."""
    report = _run(
        "criterion 2: hexagon-system isomorphisms",
        check_parallelogram_iso,
        budget=60.0,
    )
    assert len(report.checks) == 138  # partitions of 1..10


def test_criterion_3_irreducibility():
    """Elementary hosts: no central elements, only extremes complemented."""
    _run("criterion 3: irreducibility", check_irreducibility)


def test_criterion_4_link_decomposition():
    """Linked components give product lattices with recoverable factors."""
    report = _run("criterion 4: linked decompositions", check_link_decomposition)
    assert len(report.checks) == 16  # 6 pairs + 10 triples with repetition


def test_criterion_5_delta_path_invariance():
    """Face multiplicities along every flip path equal the signed counts."""
    _run("criterion 5: path invariance", check_delta_path_invariance)


def test_criterion_6_outerplane():
    """Tree realizations: dual recovery, e-cut hits, simple flips, ideal iso."""
    report = _run(
        "criterion 6: outerplane realizations",
        check_outerplane,
        budget=120.0,
    )
    assert len(report.checks) == 14  # tree shapes on 1..6 nodes


def test_criterion_7_grid_sublattices():
    """Complementary pairs span certified chain-product grids."""
    _run("criterion 7: grid sublattices", check_grid_sublattice)


def test_criterion_8_structural_invariants():
    """Acyclicity, cover certification, Birkhoff round trips, oracles."""
    _run("criterion 8: structural invariants", check_structural_invariants)
