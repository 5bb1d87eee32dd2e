import pytest

from baerlab.baer import report_theorem_a
from baerlab.constructions import semilinear
from baerlab.reporting import FAIL
from baerlab.structure import Factorisation


@pytest.mark.parametrize("p", [3, 5])
def test_theorem_a_on_semilinear_2_4_trivial_factorisation(p):
    # The upper p-series starts from G/1, which must cost no degree-960
    # regular representation; at p = 5 clause 2 needs a normal O_p'(G).
    report = report_theorem_a(Factorisation.trivial(semilinear(2, 4)), p)
    assert all(c.verdict != FAIL for c in report.clauses)
