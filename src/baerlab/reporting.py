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

    A clause whose hypotheses are unmet reports ``not-applicable`` and never
    fails the report; ``skipped`` marks clauses abandoned on a cap, which the
    CLI escalates only under ``--strict``.
    """

    theorem: str
    prime: int | None = None
    clauses: list = field(default_factory=list)

    def add(self, clause: str, verdict: str, witness=None) -> None:
        self.clauses.append(ClauseResult(clause, verdict, witness))

    @property
    def overall(self) -> str:
        return FAIL if any(c.verdict == FAIL for c in self.clauses) else PASS

    def passed(self) -> bool:
        return self.overall == PASS

    @classmethod
    def not_applicable(cls, theorem: str, prime: int | None, reason: str) -> "TheoremReport":
        rep = cls(theorem, prime)
        rep.add("hypotheses", NOT_APPLICABLE, reason)
        return rep

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
