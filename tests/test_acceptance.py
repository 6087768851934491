"""Acceptance criteria, one test per criterion.

Every check is exact (counts, certified isomorphisms, oracle agreement);
criteria with stated runtime budgets assert them.  Each test prints one
PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import ast
import time
from pathlib import Path

import matchlat
from matchlat import verify
from matchlat.caps import DEFAULT_CAPS
from matchlat.errors import EmbeddingConflict
from matchlat.verify import (
    VerificationReport,
    check_counting,
    check_delta_path_invariance,
    check_grid_sublattice,
    check_link_decomposition,
    check_outerplane,
    check_parallelogram_profiles,
    check_structural_invariants,
    run_suite,
)


def _run(name, check, budget=None, claims=""):
    """Run a check into a fresh report and keep the claims with this prefix."""
    report = VerificationReport(suite=name)
    start = time.perf_counter()
    check(report, DEFAULT_CAPS)
    elapsed = time.perf_counter() - start
    report.checks = [c for c in report.checks if c.claim_id.startswith(claims)]
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
        check_parallelogram_profiles,
        budget=60.0,
        claims="iso ",
    )
    assert len(report.checks) == 138  # partitions of 1..10


def test_criterion_3_irreducibility():
    """Elementary hosts: no central elements, only extremes complemented."""
    report = _run(
        "criterion 3: irreducibility",
        check_parallelogram_profiles,
        claims="irreducible ",
    )
    assert len(report.checks) == 138


def test_parallelogram_suite_builds_each_host_once(monkeypatch):
    """20 counting hosts plus one per row profile, shared by both claims;
    the report lists all isomorphism claims before the irreducibility ones."""
    builds = []

    def counted(spec, caps):
        builds.append(spec.rows)
        return build(spec, caps)

    build = verify.truncated_parallelogram
    monkeypatch.setattr(verify, "truncated_parallelogram", counted)
    report = run_suite("parallelogram")
    kinds = [c.claim_id.split()[0] for c in report.checks]
    assert kinds == ["count"] * 20 + ["iso"] * 138 + ["irreducible"] * 138
    assert report.passed
    assert len(builds) == 158
    assert len(set(builds[20:])) == 138


def test_failed_build_fails_both_claims(monkeypatch):
    build = verify.truncated_parallelogram

    def refuse_pyrene(spec, caps):
        if spec.rows == (2, 2):
            raise EmbeddingConflict("pyrene refused")
        return build(spec, caps)

    monkeypatch.setattr(verify, "truncated_parallelogram", refuse_pyrene)
    report = VerificationReport(suite="parallelogram profiles")
    check_parallelogram_profiles(report, DEFAULT_CAPS)
    failed = [(c.claim_id, c.witness) for c in report.checks if not c.passed]
    witness = "EmbeddingConflict: pyrene refused"
    assert failed == [
        ("iso M(H) = J(F(H)) for rows (2, 2)", witness),
        ("irreducible M(H) for rows (2, 2)", witness),
    ]


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


def test_package_has_no_assert_statement():
    """`python -O` strips `assert`, and a stripped guard would let a wrong
    result pass a check; the package raises AssertionError explicitly."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(matchlat.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_ci_hypothesis_profile_is_derandomised():
    """CI selects this profile, so its property tests replay locally."""
    from hypothesis import settings

    assert settings.get_profile("ci").derandomize
