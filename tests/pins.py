"""Every outcome CI pins, one row per case, and the runner that checks them.

    ulimit -v 1000000; python3 -B tests/pins.py

Run from the root of a checkout.  A row is ``(name, build, pins)``: ``build()``
runs the case and returns what it gave, which must match every pin and record
no failed operation or output check; the runner exits 1 if any row does not.
"""

import contextlib
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
# As -B does: importing battery.py writes no bytecode under perfbench/.
was, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import battery  # noqa: E402
from baerlab import constructions, group, structure  # noqa: E402
sys.dont_write_bytecode = was


def workload(name: str, trace: int) -> dict:
    """A run of ``perfbench/run.py --seed 1 --seconds 1``, read from its report."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", name,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    text = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=True).stdout
    clauses = dict(re.findall(r"\b(pass|fail) (\d+)", re.search(r"clauses: .*", text)[0]))
    summary = json.loads(text.splitlines()[-1])
    return {"digest": re.search(r"outcome digest (\w+) ", text)[1],
            "clauses_decided": int(clauses["pass"]) + int(clauses["fail"]),
            "attempted": int(re.search(r"operations: (\d+) attempted", text)[1]),
            "failures": ([] if summary["correct"] else ["not correct"])
                        + ([f"{summary['failed']} operations failed"] if summary["failed"] else [])}


def run(cases: list) -> dict:
    """The battery on ``cases``."""
    out = battery.run_battery(cases)
    failures = out.check_failures() + ([f"{out.failed} operations failed"] if out.failed else [])
    return {"digest": out.digest(), "clauses_decided": out.clauses_decided,
            "attempted": out.attempted, "failures": failures}


def answer(result) -> object:
    """What one battery operation gave, in JSON: a report's clauses (its
    ``overall`` is a function of their verdicts and is left out), a status's
    verdict and witnesses, or a decomposition's prime partition."""
    if isinstance(result, battery.TheoremReport):
        return {k: v for k, v in result.to_json_dict().items() if k != "overall"}
    if isinstance(result, battery.baer.BaerStatus):
        return {"prime": result.prime, "is_p_baer": result.is_p_baer, "is_baer": result.is_baer,
                "per_prime": result.per_prime,
                "witnesses": [w.to_json_dict() for w in result.witnesses]}
    return None if result is None else result.prime_partition


@contextlib.contextmanager
def counting():
    """The engine work done inside the block, as a dict filled on the way:
    ``take`` calls and the ids they compose, ``Group.closure_from_gen_ids``
    calls, and the columns a ``CayleyTable`` stores after it is built.  The
    wrappers live here only, so the engine pays nothing for them."""
    counts = {"takes": 0, "ids_composed": 0, "closures": 0, "columns": 0}
    take, closure, cayley = group.take, group.Group.closure_from_gen_ids, group.Group.cayley
    tables = []

    def counted_take(seq, ids):
        counts["takes"] += 1
        counts["ids_composed"] += len(ids)
        return take(seq, ids)

    def counted_closure(self, gen_ids, prefix=None):
        counts["closures"] += 1
        return closure(self, gen_ids, prefix)

    class Columns(dict):
        def __setitem__(self, key, value):
            counts["columns"] += 1
            dict.__setitem__(self, key, value)

    def counted_cayley(self):
        # Every column is read through Group.cayley, so a table built inside
        # the block, or before it, counts from its first use here on.
        mul = cayley(self)
        if type(mul._cols) is dict:
            mul._cols = Columns(mul._cols)
            tables.append(mul)
        return mul

    with mock.patch.object(group, "take", counted_take), \
         mock.patch.object(structure, "take", counted_take), \
         mock.patch.object(group.Group, "closure_from_gen_ids", counted_closure), \
         mock.patch.object(group.Group, "cayley", counted_cayley):
        try:
            yield counts
        finally:
            for mul in tables:
                mul._cols = dict(mul._cols)


def answers(name: str) -> dict:
    """The battery on a seed-1 workload, in-process, with a digest of the
    sorted JSON of every operation's answer (:func:`answer`) by where it ran,
    and the battery's engine work (:func:`counting`, set-up excluded)."""
    texts, call = [], battery.Outcome.call

    def recorded(self, where, theorem, prime, fn, *args):
        result = call(self, where, theorem, prime, fn, *args)
        texts.append(json.dumps([where, theorem, prime, answer(result)], sort_keys=True))
        return result

    cases = battery.setup(name, 1)
    with mock.patch.object(battery.Outcome, "call", recorded), counting() as counts:
        got = run(cases)
    texts.sort()
    return {**got, **counts, "answers": hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]}


def trivial(spec: str) -> dict:
    """The battery on the trivial factorisation G = G G of a materialised spec."""
    return run([battery._trivial_case(spec)])


def lazy(spec: str) -> dict:
    """The battery on the trivial factorisation of a product that must stay lazy."""
    G = constructions.parse_group_spec(spec)
    got = run([battery.Case(spec, G, [("trivial", structure.Factorisation.trivial(G))], True)])
    return {**got, "materialised": G.is_materialized}


def sweep(specs: list) -> dict:
    """The battery on every factorisation of each spec, as the subgroup sweep builds them."""
    cases = battery.setup("subgroup-sweep", 1, specs)
    return {**run(cases), "factorisations": sum(len(c.factorisations) for c in cases)}


def lattice_digest(subs: list) -> str:
    """A digest of a subgroup list: each subgroup's sorted ids and carried
    generating ids, in list order."""
    rows = [[sorted(S.ids), S.generating_ids()] for S in subs]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def lattice(spec: str) -> dict:
    """The subgroups of a spec with their digest and the enumeration's engine
    work (:func:`counting`), each closed from the generating ids it carries,
    and their conjugacy classes read as hall_conjugates."""
    G = constructions.parse_group_spec(spec)
    with counting() as counts:
        subs = structure.enumerate_subgroups(G, max_order=G.order)
    carried = all(G.closure_from_gen_ids(S.generating_ids()) == S.ids for S in subs)
    failures = [] if carried else ["a subgroup's generating ids close to another set"]
    seen, classes = set(), 0
    for H in subs:
        if H not in seen:
            classes += 1
            seen.update(structure.hall_conjugates(G, H))
    failures += [] if seen == set(subs) else ["a conjugate lies outside the lattice"]
    return {"subgroups": len(subs), "classes": classes, "digest": lattice_digest(subs), **counts,
            "failures": failures}


ROWS = [
    *((f"{w} trace {t}", lambda w=w, t=t: workload(w, t),
       {"digest": d, "clauses_decided": c, "attempted": a})
      for w, d, c, a in (("subgroup-sweep", "10cd322943b56ba5", 14849, 18042),
                         ("quotient-wall", "35b5ee830c0fb75a", 69, 105),
                         ("direct-products", "77408b56ee475268", 191, 193))
      for t in (0, 1)),
    *((f"{w} answers", lambda w=w: answers(w),
       {"digest": d, "clauses_decided": c, "attempted": a, "answers": h,
        "takes": t, "ids_composed": i, "closures": k, "columns": n})
      for w, d, c, a, h, t, i, k, n in (
          ("subgroup-sweep", "10cd322943b56ba5", 14849, 18042, "b34ff14d0849e201",
           4360, 61265, 220, 98),
          ("quotient-wall", "35b5ee830c0fb75a", 69, 105, "8c0172b8abe3ce8a",
           3286, 224925, 65, 389),
          ("direct-products", "77408b56ee475268", 191, 193, "826a57f6664b9583",
           2631, 14243, 141, 27))),
    ("semilinear(2,7)", lambda: trivial("semilinear(2,7)"),
     {"digest": "08d242726cd56bb7", "clauses_decided": 22, "attempted": 35}),
    ("S7 x C2", lambda: trivial("subgroup(product(symmetric(7),cyclic(2)); g0, g1, g2)"),
     {"digest": "b4a8e3969662647f", "clauses_decided": 18, "attempted": 48}),
    ("symmetric(8)", lambda: trivial("symmetric(8)"),
     {"digest": "6553a456d55a2f03", "clauses_decided": 18, "attempted": 48}),
    ("symmetric(9)", lambda: trivial("symmetric(9)"),
     {"digest": "d1304b36fd05630e", "clauses_decided": 18, "attempted": 48}),
    ("S7 x S7 lazy", lambda: lazy("product(symmetric(7),symmetric(7))"),
     {"digest": "8a75d36276913218", "clauses_decided": 9, "attempted": 44, "materialised": False}),
    ("S3 x C5 lazy", lambda: lazy("product(symmetric(3),cyclic(5))"),
     {"digest": "3667e5c6ff2c36b1", "clauses_decided": 50, "attempted": 31, "materialised": False}),
    ("sweep smoke", lambda: sweep(["symmetric(5)", "semilinear(3,2)"]),
     {"digest": "417a2d07a0caf943", "clauses_decided": 10132, "attempted": 22235,
      "factorisations": 893}),
    ("symmetric(7) lattice", lambda: lattice("symmetric(7)"),
     {"subgroups": 11300, "classes": 96, "digest": "1f374ae97bee5927", "closures": 8264}),
]


def main(rows=ROWS) -> int:
    bad = False
    for name, build, pins in rows:
        t0 = time.perf_counter()
        got = build()
        lines = got["failures"] + [f"{key} is {got.get(key)!r}, pinned {want!r}"
                                   for key, want in pins.items() if got.get(key) != want]
        print(f"{name}: {'MISMATCH' if lines else 'ok'} in {time.perf_counter() - t0:.1f} s, {got}",
              *lines, sep="\n  ", flush=True)
        bad |= bool(lines)
        gc.collect()
    return int(bad)


if __name__ == "__main__":
    sys.exit(main())
