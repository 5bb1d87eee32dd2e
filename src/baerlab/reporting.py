"""Structured pass/fail verdicts with witnesses, as the ``baer`` checks return them.

The records are slotted dataclasses, smaller and quicker to build than
dict-backed ones: a seed-1 subgroup-sweep battery builds 13,708 reports and
26,364 clauses.  A clause set that reads only the group and one of its Sylow
subgroups is worked out once, as ``(clause, verdict, witness)`` rows, and
every report that needs it copies the rows into new :class:`ClauseResult`
records (:meth:`TheoremReport.extend`).  So a report's ``clauses`` list and
records are its own, but a witness may be shared with other reports: treat
witnesses as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import starmap

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
SKIPPED = "skipped"


def row(clause: str, holds: bool, witness=None) -> tuple:
    """A conclusion as a ``(clause, verdict, witness)`` row: ``pass`` if it holds, else ``fail``."""
    return clause, PASS if holds else FAIL, witness


@dataclass(slots=True)
class ClauseResult:
    clause: str
    verdict: str
    witness: object = None


@dataclass(slots=True)
class TheoremReport:
    """Per-clause verdicts for one theorem check.

    A conclusion is recorded by :meth:`check` as ``pass`` or ``fail``.  A
    clause whose hypotheses are unmet reports ``not-applicable``;
    ``skipped`` marks a check abandoned on a cap.  :attr:`overall` is
    ``fail`` if a clause fails, else ``skipped`` if one is skipped, else
    ``pass`` if one passes, else ``not-applicable``: a report that decided
    nothing never reads ``pass``.
    """

    theorem: str
    prime: int | None = None
    clauses: list = field(default_factory=list)

    def add(self, clause: str, verdict: str, witness=None) -> None:
        self.clauses.append(ClauseResult(clause, verdict, witness))

    def check(self, clause: str, holds: bool, witness=None) -> None:
        """Record a conclusion: ``pass`` if it holds, else ``fail``."""
        self.clauses.append(ClauseResult(*row(clause, holds, witness)))

    def extend(self, rows) -> None:
        """Record shared ``(clause, verdict, witness)`` rows, each as a new
        :class:`ClauseResult`; the witnesses stay shared."""
        self.clauses += starmap(ClauseResult, rows)

    @property
    def overall(self) -> str:
        verdicts = {c.verdict for c in self.clauses}
        return next((v for v in (FAIL, SKIPPED, PASS) if v in verdicts), NOT_APPLICABLE)

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "prime": self.prime,
            "overall": self.overall,
            "clauses": [
                {"clause": c.clause, "verdict": c.verdict, "witness": c.witness}
                for c in self.clauses
            ],
        }
