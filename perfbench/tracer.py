"""Spans and counts for the benchmark's traced run.

:class:`Tracer` wraps the engine functions the battery reaches.  Because
``structure`` and ``baer`` bind functions by name with ``from ... import``,
a wrapper is installed on every module attribute of the package that holds
the original function, and on the class attribute for ``Group`` methods;
otherwise calls made from those modules would go unseen.

Each call becomes a span ``(name, start, end, parent)``.  Spans are kept in
flat arrays in memory and summarised (or written out) at the end: a span's
self time is its duration minus the time its child spans cover, and a
function's total time counts only its outermost spans, so recursion is not
counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# (layer name, module, attribute); "Group.<m>" marks a method of Group.
LAYERS = (
    ("constructions.parse_group_spec", "constructions", "parse_group_spec"),
    ("group.materialize", "group", "Group.materialize"),
    ("group.cayley", "group", "Group.cayley"),
    ("group.closure", "group", "closure"),
    ("group.closure_from_gen_ids", "group", "Group.closure_from_gen_ids"),
    ("group.conjugacy_partition", "group", "Group.conjugacy_partition"),
    ("group.conjugacy_class", "group", "conjugacy_class"),
    ("group.class_index", "group", "class_index"),
    ("group.centraliser", "group", "centraliser"),
    ("structure.sylow", "structure", "sylow"),
    ("structure.sylow_conjugates", "structure", "sylow_conjugates"),
    ("structure.o_p", "structure", "o_p"),
    ("structure.o_pi", "structure", "o_pi"),
    ("structure.fitting", "structure", "fitting"),
    ("structure.fitting2", "structure", "fitting2"),
    ("structure.quotient_group", "structure", "quotient_group"),
    ("structure.upper_p_series", "structure", "upper_p_series"),
    ("structure.hall", "structure", "hall"),
    ("structure.hall_conjugates", "structure", "hall_conjugates"),
    ("structure.normal_closure", "structure", "normal_closure"),
    ("structure.is_normal", "structure", "is_normal"),
    ("structure.enumerate_subgroups", "structure", "enumerate_subgroups"),
    ("structure.find_prefactorised_sylow", "structure", "find_prefactorised_sylow"),
) + tuple(
    (f"baer.{fn}", "baer", fn)
    for fn in (
        "is_p_baer", "is_baer", "report_theorem_a", "report_theorem_b",
        "report_theorem_e", "check_p_index_decomposition", "check_pq_baer",
        "check_theorem_f_equivalence", "report_corollary_c",
        "check_factor_inheritance", "check_wielandt", "check_camina_camina",
        "check_lemma_bk", "baer_decomposition",
    )
)


# -- counts computed at layer boundaries ---------------------------------------
#
# A hook is a pair (before, after): ``before(args)`` runs ahead of the call
# and outside its span; ``after(counts, args, result, state)`` runs after a
# call that returned, with what ``before`` gave.


def _cayley_before(args):
    return args[0]._cayley is None


def _cayley_after(counts, args, table, built):
    if built:  # only a table built by this call costs |G|^2 cells
        counts["group.cayley.cells"] += len(table) ** 2


def _closure_after(counts, args, result, _state):
    counts["group.closure.elements"] += len(result)


def _centraliser_before(args):
    G = args[0]
    return G.direct_factors is not None and not G.is_materialized


def _centraliser_after(counts, args, _result, componentwise):
    G, S = args[0], args[1]
    gens = S.generating_set() if hasattr(S, "generating_set") else S
    if not componentwise and any(not s.is_identity() for s in gens):
        counts["group.centraliser.scanned"] += G.order


def _quotient_before(args):
    return len(args[0]._cache)


def _quotient_after(counts, args, result, cache_size):
    if args[1].order == 1:
        counts["structure.quotient_group.trivial_kernel"] += 1
    if len(args[0]._cache) > cache_size:  # built, not a cache hit
        counts["structure.quotient_group.degree_sum"] += result.group.degree


HOOKS = {
    "group.cayley": (_cayley_before, _cayley_after),
    "group.closure": (None, _closure_after),
    "group.centraliser": (_centraliser_before, _centraliser_after),
    "structure.quotient_group": (_quotient_before, _quotient_after),
}

COUNTS = (
    "group.cayley.cells",
    "group.closure.elements",
    "group.centraliser.scanned",
    "structure.quotient_group.degree_sum",
    "structure.quotient_group.trivial_kernel",
)


class Tracer:
    """Records spans for wrapped functions and for phases the caller opens."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")  # no enclosing span of the same name
        self._stack: list = []
        self._open: list = []  # per name id, spans of that name now open
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def open(self, nid: int) -> int:
        span = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outermost.append(self._open[nid] == 0)
        self._open[nid] += 1
        self._stack.append(span)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return span

    def close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._stack.pop()
        self._open[self.name_of[span]] -= 1

    @contextmanager
    def span(self, name: str):
        sid = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(sid)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        before, after = HOOKS.get(name, (None, None))
        tracer = self

        if after is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = tracer.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(span)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                state = before(args) if before else None
                span = tracer.open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(span)
                after(tracer.counts, args, result, state)
                return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding of every layer function while the block runs."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "baerlab" or k.startswith("baerlab."))]
        undo = []
        try:
            for name, module, attr in LAYERS:
                home = sys.modules[f"baerlab.{module}"]
                if attr.startswith("Group."):
                    cls, meth = home.Group, attr.split(".", 1)[1]
                    original = cls.__dict__[meth]
                    undo.append((cls, meth, original))
                    setattr(cls, meth, self.wrap(name, original))
                    continue
                original = getattr(home, attr)
                wrapper = self.wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            undo.append((m, key, original))
                            setattr(m, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def summary(self) -> dict:
        """Per name: calls, self seconds and total (outermost) seconds."""
        return summarise(self.names, self.name_of, self.parent, self.start,
                         self.end, self.outermost)


def summarise(names, name_of, parent, start, end, outermost) -> dict:
    n = len(start)
    covered = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in names}
    for i in range(n):
        row = out[names[name_of[i]]]
        dur = end[i] - start[i]
        row["calls"] += 1
        row["self_s"] += dur - covered[i]
        if outermost[i]:
            row["total_s"] += dur
    return out
