import pytest

from baerlab import baer
from baerlab.baer import check_theorem_f_equivalence, report_theorem_a
from baerlab.constructions import dihedral, direct_product, frobenius, semilinear, symmetric
from baerlab.errors import CAYLEY_TABLE_MAX_ORDER, CapExceeded, InternalInvariantViolation
from baerlab.group import Subgroup
from baerlab.reporting import FAIL, SKIPPED
from baerlab.structure import Factorisation, pi_of


@pytest.mark.parametrize("p", [3, 5])
def test_theorem_a_on_semilinear_2_4_trivial_factorisation(p):
    # The upper p-series starts from G/1, which must cost no degree-960
    # regular representation; at p = 5 clause 2 needs a normal O_p'(G).
    report = report_theorem_a(Factorisation.trivial(semilinear(2, 4)), p)
    assert all(c.verdict != FAIL for c in report.clauses)


def test_theorem_a_on_unmaterialised_product_factorisation():
    # G = A x B of order 30,240: the products P F(G) and P O_p'(G) of
    # clause 2 must be built block by block, never by closing G-sized sets.
    left, right = [symmetric(4), dihedral(10)], [frobenius(7, 3), symmetric(3)]
    G = direct_product(left + right)
    blocks = G.direct_factors
    k = len(left)
    A = Subgroup.from_factors(G, [Subgroup.full(f) for f in blocks[:k]]
                              + [Subgroup.trivial(f) for f in blocks[k:]])
    B = Subgroup.from_factors(G, [Subgroup.trivial(f) for f in blocks[:k]]
                              + [Subgroup.full(f) for f in blocks[k:]])
    F = Factorisation(G, A, B)
    assert G.order == 30_240
    for p in sorted(pi_of(G)):
        report = report_theorem_a(F, p)
        assert all(c.verdict != FAIL for c in report.clauses)
    assert not G.is_materialized


def test_cayley_gate_is_a_skipped_clause():
    # semilinear(2,5) has order 4960, past the Cayley-table gate.
    report = report_theorem_a(Factorisation.trivial(semilinear(2, 5)), 2)
    assert (report.theorem, report.prime) == ("A", 2)
    [clause] = report.clauses
    assert clause.verdict == SKIPPED
    assert clause.witness["cap"] == CAYLEY_TABLE_MAX_ORDER
    assert report.has_skips() and report.passed()


def test_theorem_f_cap_is_a_skipped_clause():
    report = check_theorem_f_equivalence(Factorisation.trivial(symmetric(7)))
    assert report.theorem == "F" and report.prime is None
    assert [c.verdict for c in report.clauses] == [SKIPPED]
    assert report.clauses[0].witness["cap"] == CAYLEY_TABLE_MAX_ORDER


def test_cap_witness_and_invariant_violations(monkeypatch):
    F = Factorisation.trivial(symmetric(3))

    def capped(*_args):
        raise CapExceeded("walk too long", cap=7, partial=3)

    monkeypatch.setattr(baer, "is_p_baer", capped)
    report = baer.report_theorem_b(F, p=3)
    assert report.prime == 3
    [clause] = report.clauses
    assert clause.verdict == SKIPPED
    assert clause.witness == {"message": "walk too long", "cap": 7, "partial": 3}

    def broken(*_args):
        raise InternalInvariantViolation("engine bug")

    monkeypatch.setattr(baer, "is_p_baer", broken)
    with pytest.raises(InternalInvariantViolation):
        report_theorem_a(F, 3)
