"""Workload corpora and the theorem battery that runs on them.

A workload is a fixed corpus of factorisations ``G = AB``.  :func:`setup`
builds it (parse the specs, materialise the stores, enumerate subgroups and
certify every :class:`Factorisation`), shuffled by a seed: the seed changes
the order of the groups and of the factorisations within a group, never the
corpus.  :func:`run_battery` then calls every check of ``baerlab.baer`` on it
and records one outcome row per clause, so two runs can be compared as
multisets whatever order they ran in.

Engine functions are looked up on their modules at call time, so the traced
run's wrappers see every call the battery makes.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field

from baerlab import baer, constructions, structure
from baerlab.reporting import FAIL, NOT_APPLICABLE, PASS, SKIPPED, TheoremReport

# Many small groups, every factorisation of each.  symmetric(5) and
# semilinear(3,2) are left out: their 893 factorisations took two thirds of
# the sweep's time, more than a run can repeat (see README.md).
SWEEP_SPECS = (
    "cyclic(6)", "cyclic(12)",
    "dihedral(8)", "dihedral(10)", "dihedral(12)", "dihedral(18)",
    "symmetric(3)", "symmetric(4)",
    "frobenius(5,4)", "frobenius(7,3)", "frobenius(13,3)", "frobenius(11,10)",
    "elemabelian(2,3)",
    "product(symmetric(3),cyclic(2))", "product(symmetric(4),cyclic(3))",
    "semilinear(2,3)",
)

# Trivial factorisations whose upper p-series goes through ``G/1``, a
# quotient by the trivial subgroup built as the regular representation.  The
# last group is the index-2 subgroup x -> a x^(4^i) + b of semilinear(2,4),
# order 480: it raises the o_pi defect at p = 5 as semilinear(2,4) does,
# in 7 s where semilinear(2,4) takes 50 s (see README.md).
WALL_SPECS = ("semilinear(2,3)", "symmetric(5)", "subgroup(semilinear(2,4); g0, g1, g2^2)")

# ``G = A x B`` with A and B whole blocks of a direct product that is never
# materialised (orders 7,488 to 69,300).
PRODUCT_CASES = (
    (("symmetric(4)", "dihedral(10)"), ("frobenius(7,3)", "symmetric(3)")),
    (("cyclic(3)", "frobenius(7,2)", "frobenius(11,5)"), ("cyclic(5)",)),
    (("frobenius(11,5)", "symmetric(3)"), ("frobenius(7,3)", "dihedral(10)")),
    (("symmetric(4)",), ("frobenius(13,3)", "dihedral(8)")),
)

WORKLOADS = ("subgroup-sweep", "quotient-wall", "direct-products")

CLAUSE_VERDICTS = (PASS, FAIL, NOT_APPLICABLE, SKIPPED)


@dataclass
class Case:
    """One group with its factorisations, in the order the battery visits them."""

    label: str
    group: object
    factorisations: list  # of (label, Factorisation)
    must_stay_lazy: bool = False  # a product that no operation may materialise


def setup(workload: str, seed, corpus=None) -> list:
    """Build the workload's cases, shuffled by ``seed``.

    ``corpus`` replaces the workload's group list (specs, or block pairs for
    ``direct-products``); the harness self-test uses it for a tiny corpus.
    """
    rng = random.Random(seed)
    if workload == "subgroup-sweep":
        cases = [_sweep_case(spec, rng) for spec in corpus or SWEEP_SPECS]
    elif workload == "quotient-wall":
        cases = [_trivial_case(spec) for spec in corpus or WALL_SPECS]
    elif workload == "direct-products":
        cases = [_product_case(a, b) for a, b in corpus or PRODUCT_CASES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cases)
    return cases


def _sweep_case(spec: str, rng: random.Random) -> Case:
    G = constructions.parse_group_spec(spec)
    subs = structure.enumerate_subgroups(G)
    n = G.order
    facts = [("trivial", structure.Factorisation.trivial(G))]
    # Unordered pairs of proper subgroups with |A||B| = |G||A n B|.
    for i, A in enumerate(subs):
        if A.order == n:
            continue
        for j in range(i, len(subs)):
            B = subs[j]
            if B.order < n and A.order * B.order == n * len(A.ids & B.ids):
                facts.append((f"S{i}*S{j}", structure.Factorisation(G, A, B)))
    rng.shuffle(facts)
    return Case(spec, G, facts)


def _trivial_case(spec: str) -> Case:
    G = constructions.parse_group_spec(spec)
    G.materialize()
    return Case(spec, G, [("trivial", structure.Factorisation.trivial(G))])


def _product_case(left, right) -> Case:
    spec = "product(" + ",".join(left + right) + ")"
    G = constructions.parse_group_spec(spec)
    Subgroup = structure.Subgroup
    k = len(left)
    blocks = G.direct_factors
    A = Subgroup.from_factors(
        G, [Subgroup.full(f) if i < k else Subgroup.trivial(f) for i, f in enumerate(blocks)]
    )
    B = Subgroup.from_factors(
        G, [Subgroup.trivial(f) if i < k else Subgroup.full(f) for i, f in enumerate(blocks)]
    )
    label = f"[{', '.join(left)}] x [{', '.join(right)}]"
    return Case(spec, G, [(label, structure.Factorisation(G, A, B))], must_stay_lazy=True)


@dataclass
class Outcome:
    """What one battery run produced.

    ``rows`` counts ``(group, factors, theorem, prime, clause, verdict)``
    tuples; an operation that raised contributes one row with clause
    ``exception`` and the exception type as its verdict.
    """

    rows: Counter = field(default_factory=Counter)
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    clauses: Counter = field(default_factory=Counter)
    route_pairs: int = 0
    route_disagreements: list = field(default_factory=list)
    factorisation_errors: list = field(default_factory=list)
    materialised_products: list = field(default_factory=list)

    @property
    def clauses_decided(self) -> int:
        return self.clauses[PASS] + self.clauses[FAIL]

    def digest(self) -> str:
        """Order-independent fingerprint of ``rows``."""
        text = repr(sorted((repr(k), v) for k, v in self.rows.items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def check_failures(self) -> list:
        """Violated output checks, as human-readable lines."""
        out = [f"routes disagree: {d}" for d in self.route_disagreements]
        out += [f"not a factorisation: {d}" for d in self.factorisation_errors]
        out += [f"direct product materialised: {d}" for d in self.materialised_products]
        return out

    def call(self, where: tuple, theorem: str, prime, fn, *args):
        """Run one battery operation; an exception is counted, never raised."""
        self.attempted += 1
        try:
            result = fn(*args)
        except Exception as exc:  # the battery must go on; the type is recorded
            name = type(exc).__name__
            self.failed += 1
            self.errors[name] += 1
            self.rows[where + (theorem, prime, "exception", name)] += 1
            return None
        if isinstance(result, TheoremReport):
            failed = False
            for c in result.clauses:
                self.clauses[c.verdict] += 1
                self.rows[where + (theorem, prime, c.clause, c.verdict)] += 1
                failed = failed or c.verdict == FAIL
            if failed:
                self.failed += 1
        elif isinstance(result, baer.BaerStatus):
            self.rows[where + (theorem, prime, "holds", str(result.holds()))] += 1
        else:
            partition = None if result is None else result.prime_partition
            self.rows[where + (theorem, prime, "prime_partition", repr(partition))] += 1
        return result


def run_battery(cases: list) -> Outcome:
    """Every battery operation on every case, then the output checks."""
    out = Outcome()
    call = out.call
    for case in cases:
        G = case.group
        primes = sorted(structure.pi_of(G))
        for flabel, F in case.factorisations:
            where = (case.label, flabel)
            for p in primes:
                union = call(where, "is_p_baer[union]", p, baer.is_p_baer, F, p, "union")
                via_sylow = call(where, "is_p_baer[sylow]", p, baer.is_p_baer, F, p, "sylow")
                if union is not None and via_sylow is not None:
                    out.route_pairs += 1
                    if union.is_p_baer != via_sylow.is_p_baer:
                        out.route_disagreements.append(f"{case.label} {flabel} p={p}")
                call(where, "theorem_a", p, baer.report_theorem_a, F, p)
                call(where, "theorem_b", p, baer.report_theorem_b, F, p)
                call(where, "theorem_e", p, baer.report_theorem_e, F, p)
                for scope in ("p-elements", "all prime power"):
                    call(where, f"p_index_decomposition[{scope}]", p,
                             baer.check_p_index_decomposition, F, p, scope)
                for q in primes:
                    if q != p:
                        call(where, f"pq_baer[q={q}]", p, baer.check_pq_baer, F, p, q)
            call(where, "baer", None, baer.is_baer, F)
            call(where, "theorem_f", None, baer.check_theorem_f_equivalence, F)
            call(where, "corollary_c", None, baer.report_corollary_c, F)
            call(where, "factor_inheritance", None, baer.check_factor_inheritance, F)
        if G.is_materialized:
            where = (case.label, "group")
            call(where, "wielandt", None, baer.check_wielandt, G)
            call(where, "camina_camina", None, baer.check_camina_camina, G)
            call(where, "lemma_bk", None, baer.check_lemma_bk, G)
            call(where, "baer_decomposition", None, baer.baer_decomposition, G)
    _check_outputs(cases, out)
    return out


def _check_outputs(cases: list, out: Outcome) -> None:
    for case in cases:
        G = case.group
        for flabel, F in case.factorisations:
            meet = F.a.intersection(F.b).order
            if F.a.order * F.b.order != G.order * meet:
                out.factorisation_errors.append(f"{case.label} {flabel}")
        if case.must_stay_lazy and G.is_materialized:
            out.materialised_products.append(case.label)
