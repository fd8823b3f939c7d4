"""Acceptance gate: every criterion runs exactly, no tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion. These sweeps are the heavy part of the suite (about a minute).
"""

from fusionkit.verify import (
    verify_axioms,
    verify_lemmas,
    verify_multiplicity_oracle,
    verify_prv,
    verify_sl2_closed_form,
    verify_stability,
    verify_three_way,
    verify_threshold,
)


def _gate(number: int, name: str, report) -> None:
    verdict = "PASS" if report.passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({report.checks} checks)")
    assert report.passed, report.failures[:5]


def test_criterion_1_sl2_closed_form():
    # all 0 <= n1, n2 <= k <= 8 and all valid i, exact 0/1 match
    _gate(1, "sl2-closed-form", verify_sl2_closed_form())


def test_criterion_2_prv_equals_racah_speiser():
    # A1 dims <= 12 both sides; A2 coords <= 2 both sides; all beta
    _gate(2, "prv", verify_prv())


def test_criterion_3_three_way_backend_agreement():
    # walton == kac-walton on A1 k<=4 and A2 k<=2; walton == fz under the cap
    _gate(3, "three-way", verify_three_way())


def test_criterion_4_fusion_algebra_axioms():
    # tables A1 k in 1..6, A2 k in 1..3; identity, commutativity,
    # conjugation C^2 = I, S3 symmetry, associativity
    _gate(4, "axioms", verify_axioms())


def test_criterion_5_threshold_corollary():
    # fusion == tensor multiplicity once k >= <mu,theta> + r; sharp on sl2
    _gate(5, "threshold", verify_threshold())


def test_criterion_6_lemma_suite():
    # orthogonal split on V(m), m <= 10; kernel duality on A2 dims <= 200
    # over alpha in {alpha1, alpha2, theta}; 50 random projection splits
    _gate(6, "lemmas", verify_lemmas())


def test_criterion_7_stability():
    _gate(7, "stability", verify_stability())


def test_criterion_8_multiplicity_recursion_vs_freudenthal():
    # identical diagrams for all Weyl-dim <= 500 in A1, A2, B2, G2
    _gate(8, "multiplicity", verify_multiplicity_oracle(dim_cap=500))
