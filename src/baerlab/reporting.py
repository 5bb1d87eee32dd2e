"""Structured pass/fail verdicts with witnesses, shared by checks and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
SKIPPED = "skipped"


@dataclass
class ClauseResult:
    clause: str
    verdict: str
    witness: object = None


@dataclass
class TheoremReport:
    """Per-clause verdicts for one theorem check.

    A conclusion is recorded by :meth:`check` as ``pass`` or ``fail``.  A
    clause whose hypotheses are unmet reports ``not-applicable`` and never
    fails the report; ``skipped`` marks a check abandoned on a cap.
    """

    theorem: str
    prime: int | None = None
    clauses: list = field(default_factory=list)

    def add(self, clause: str, verdict: str, witness=None) -> None:
        self.clauses.append(ClauseResult(clause, verdict, witness))

    def check(self, clause: str, holds: bool, witness=None) -> None:
        """Record a conclusion: ``pass`` if it holds, else ``fail``."""
        self.clauses.append(ClauseResult(clause, PASS if holds else FAIL, witness))

    @property
    def overall(self) -> str:
        return FAIL if any(c.verdict == FAIL for c in self.clauses) else PASS

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
