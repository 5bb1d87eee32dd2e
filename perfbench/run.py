"""Run one workload of the theorem-battery benchmark and print its metrics.

    python3 perfbench/run.py --workload subgroup-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the engine is imported from ``src``).
Each repetition runs the whole battery in a fresh single-threaded worker
process, so no engine cache survives from one repetition to the next and each
has its own peak memory.  Repetitions continue until ``--seconds`` have passed
(at least two, since a run checks that different shuffles agree).  Repetition
``k`` shuffles the corpus with ``"<seed>:<k>"``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced repetitions and prints the per-layer metrics, the tracing overhead
and the reach probe.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
say the same for a reader.  The exit code is 0 whenever a result is printed,
and ``correct`` is false if any output check failed.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median

from speed import SpeedSampler
from tracer import COUNTS, LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_REPS = 2
SETUP_BUDGET_S = 0.2
MAX_SETUPS = 25
RUN_LIMIT_S = 170  # a run must end within 180 s; workers are killed past this

END_TO_END = (
    ("battery_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_ratio", "ratio"),
    ("clauses_decided", "count"),
)

# The layer each workload was chosen to stress; the traced run reports
# whether it is the largest self time.
PREDICTED_DOMINANT = {
    "subgroup-sweep": "group.centraliser",
    "quotient-wall": "group.cayley",
    "direct-products": "group.closure",
}

# Layers never called on some workload at the commit that defined the
# benchmark.  Their times would read 0 on every run there, so only their call
# counts are metrics; their times are still in the printed table.
UNTIMED_LAYERS = frozenset({
    "group.conjugacy_class", "structure.enumerate_subgroups", "structure.hall",
    "structure.hall_conjugates", "structure.normal_closure", "structure.fitting2",
    "baer.check_wielandt", "baer.check_camina_camina", "baer.check_lemma_bk",
    "baer.baer_decomposition",
})

# The untimed reach probe: Sylow subgroups of groups past the Cayley-table gate.
REACH_PROBE = (("semilinear(2,5)", 2), ("symmetric(7)", 2))


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, _module, _attr in LAYERS:
        out.append((f"{layer}.calls", "count"))
        if layer not in UNTIMED_LAYERS:
            out += [(f"{layer}.self_s", "s"), (f"{layer}.total_s", "s")]
    out += [(name, "count") for name in COUNTS]
    out += [(f"reporting.clauses.{v.replace('-', '_')}", "count")
            for v in ("pass", "fail", "not-applicable", "skipped")]
    out += [("errors.CapExceeded", "count"), ("errors.InternalInvariantViolation", "count"),
            ("reach.CapExceeded", "count"), ("trace.coverage", "ratio"),
            ("trace.overhead_ratio", "ratio")]
    return out


# -- worker: one repetition in its own process -----------------------------------


def worker(workload: str, shuffle: str, traced: bool, probe: bool) -> dict:
    import battery

    tracer = Tracer() if traced else None
    sampler = SpeedSampler()
    span = tracer.span if tracer else (lambda _name: nullcontext())
    with tracer.installed() if tracer else nullcontext(), sampler:
        with span("bench.setup"):
            # A short set-up is repeated, on fresh objects, to time its median.
            setups = []
            while True:
                t0 = time.perf_counter()
                cases = battery.setup(workload, shuffle)
                setups.append((t0, time.perf_counter()))
                if (traced or len(setups) == MAX_SETUPS
                        or setups[-1][1] - setups[0][0] >= SETUP_BUDGET_S):
                    break
        with span("bench.battery"):
            t2 = time.perf_counter()
            outcome = battery.run_battery(cases)
            t3 = time.perf_counter()
    result = {
        "setups": len(setups),
        "setup_wall_s": median([b - a for a, b in setups]),
        "battery_wall_s": t3 - t2,
        "speed": sampler.speed(),
        "setup_s": median([sampler.nominal_seconds(a, b) for a, b in setups]),
        "battery_s": sampler.nominal_seconds(t2, t3),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": dict(outcome.errors),
        "clauses": {v: outcome.clauses[v] for v in battery.CLAUSE_VERDICTS},
        "clauses_decided": outcome.clauses_decided,
        "digest": outcome.digest(),
        "check_failures": outcome.check_failures(),
        "checked": {
            "route_pairs": outcome.route_pairs,
            "factorisations": sum(len(c.factorisations) for c in cases),
            "lazy_products": sum(c.must_stay_lazy for c in cases),
        },
    }
    if tracer:
        # Span times at nominal speed, like battery_s; each still holds the
        # probe time that landed inside it (about 1.5% overall).
        result["layers"] = {
            name: {"calls": row["calls"], "self_s": row["self_s"] * sampler.speed(),
                   "total_s": row["total_s"] * sampler.speed()}
            for name, row in tracer.summary().items()
        }
        result["counts"] = dict(tracer.counts)
        _write_spans(tracer, OUT / f"{workload}.spans.tsv.gz")
    if probe:
        result["reach"] = reach_probe()
    return result


def _write_spans(tracer, path: Path) -> None:
    """Every span of the repetition: id, parent, name, start and end in µs."""
    path.parent.mkdir(exist_ok=True)
    t0 = tracer.start[0] if len(tracer.start) else 0.0
    names = tracer.names
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("id\tparent\tname\tstart_us\tend_us\n")
        for i in range(len(tracer.start)):
            fh.write(f"{i}\t{tracer.parent[i]}\t{names[tracer.name_of[i]]}\t"
                     f"{(tracer.start[i] - t0) * 1e6:.1f}\t{(tracer.end[i] - t0) * 1e6:.1f}\n")


def reach_probe() -> list:
    from baerlab.constructions import parse_group_spec
    from baerlab.errors import CapExceeded
    from baerlab.structure import sylow

    rows = []
    for spec, p in REACH_PROBE:
        G = parse_group_spec(spec)
        t0 = time.perf_counter()
        try:
            P = sylow(G, p)
            row = {"outcome": "ok", "sylow_order": P.order}
        except CapExceeded as exc:
            row = {"outcome": "CapExceeded", "message": str(exc), "cap": exc.cap,
                   "partial": exc.partial}
        row.update(spec=spec, prime=p, order=G.order, seconds=time.perf_counter() - t0)
        rows.append(row)
    return rows


# -- parent process: repetitions, checks and the report --------------------------


def run_reps(args) -> list:
    """Worker results in run order, each tagged with whether it was traced."""
    start = time.perf_counter()
    reps = []
    while True:
        k = len(reps)
        traced = bool(args.trace) and k % 2 == 1
        cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
               "--workload", args.workload, "--shuffle", f"{args.seed}:{k}"]
        if traced:
            cmd.append("--traced")
        if traced and k == 1:
            cmd.append("--probe")
        remaining = RUN_LIMIT_S - (time.perf_counter() - start)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(remaining, 1))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"worker for repetition {k} exited with {proc.returncode}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        rep["traced"] = traced
        reps.append(rep)
        elapsed = time.perf_counter() - start
        need = MIN_REPS * (2 if args.trace else 1)
        if elapsed >= args.seconds and len(reps) >= need:
            return reps


def _spread(xs) -> str:
    return f"median {median(xs):.4f} of {len(xs)}, min {min(xs):.4f}, max {max(xs):.4f}"


def report(args, reps: list) -> dict:
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    first = reps[0]
    problems = []
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        problems.append(f"outcome multisets differ across shuffles: {sorted(digests)}")
    for r in reps:
        problems += r["check_failures"]
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} plain"
          f"{f' and {len(traced)} traced' if traced else ''} repetitions")
    print(f"  outcome digest {first['digest']} "
          f"({'identical' if len(digests) == 1 else 'DIFFERENT'} across {len(reps)} shuffles)")
    ck = first["checked"]
    print(f"  checks: union and sylow routes of is_p_baer compared on {ck['route_pairs']} (F, p); "
          f"|A||B| = |G||A n B| on {ck['factorisations']} factorisations; "
          f"{ck['lazy_products']} direct products left unmaterialised")
    for line in problems:
        print(f"  CHECK FAILED: {line}")
    attempted = first["attempted"]
    failed = first["failed"]
    errors = ", ".join(f"{k} {v}" for k, v in sorted(first["errors"].items())) or "none"
    print(f"  operations: {attempted} attempted, {failed} failed "
          f"(ops_failed_ratio {failed / attempted:.6f}; raised: {errors}; "
          f"reports with a fail clause: {failed - sum(first['errors'].values())})")
    print("  clauses: " + ", ".join(f"{k} {v}" for k, v in first["clauses"].items()))
    summary = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
    }
    if not args.trace:
        values = {
            "battery_s": median([r["battery_s"] for r in plain]),
            "setup_s": median([r["setup_s"] for r in plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "ops_ok_ratio": (attempted - failed) / attempted,
            "clauses_decided": first["clauses_decided"],
        }
        for name, unit in END_TO_END:
            print(f"  {name:16s} {values[name]:.6f} {unit}")
        print("  times are at nominal speed (see speed.py); per repetition:")
        for key in ("battery_s", "battery_wall_s", "setup_s", "setup_wall_s", "setups",
                    "peak_rss_mb", "speed"):
            print(f"    {key:16s} {_spread([r[key] for r in plain])}")
        summary["metrics"] = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        return summary
    summary["metrics"] = traced_metrics(args, plain, traced)
    return summary


def traced_metrics(args, plain: list, traced: list) -> dict:
    # Calls and counts repeat exactly (the digest check holds the battery to
    # it); times are medians over the traced repetitions.
    layers = {}
    for name, row in traced[0]["layers"].items():
        layers[name] = {"calls": row["calls"]}
        for key in ("self_s", "total_s"):
            layers[name][key] = median([r["layers"][name][key] for r in traced])
    traced_total = layers["bench.setup"]["total_s"] + layers["bench.battery"]["total_s"]
    battery_traced = median([r["battery_s"] for r in traced])
    battery_plain = median([r["battery_s"] for r in plain])
    uncovered = layers["bench.battery"]["self_s"]
    coverage = 1 - uncovered / layers["bench.battery"]["total_s"]
    engine = {k: v for k, v in layers.items() if not k.startswith("bench.")}
    print(f"  per-layer spans at nominal speed, traced battery {battery_traced:.4f} s "
          f"(median of {len(traced)}), untraced {battery_plain:.4f} s:")
    print(f"    {'layer':40s} {'calls':>9s} {'self_s':>9s} {'total_s':>9s} {'self share':>10s}")
    for name, row in sorted(engine.items(), key=lambda kv: -kv[1]["self_s"]):
        share = row["self_s"] / traced_total
        print(f"    {name:40s} {row['calls']:9d} {row['self_s']:9.4f} {row['total_s']:9.4f} {share:10.1%}")
    print("    (self share: of the traced set-up plus battery; set-up is not in battery_s)")
    print(f"  coverage: layer self times account for {coverage:.1%} of the traced battery")
    top = max(engine, key=lambda k: engine[k]["self_s"])
    want = PREDICTED_DOMINANT[args.workload]
    print(f"  predicted dominant layer {want}: "
          f"{'holds' if top == want else f'does not hold (largest is {top})'}")
    overhead = battery_traced / battery_plain
    print(f"  trace.overhead_ratio {overhead:.4f} (traced over untraced battery_s)")
    reach = next(r["reach"] for r in traced if "reach" in r)
    for row in reach:
        detail = (f"CapExceeded: {row['message']} (cap={row['cap']}, partial={row['partial']})"
                  if row["outcome"] == "CapExceeded" else f"Sylow order {row['sylow_order']}")
        print(f"  reach probe: sylow({row['spec']}, {row['prime']}), order {row['order']}: "
              f"{detail} after {row['seconds']:.3f} s")
    first = traced[0]
    values = dict(first["counts"])
    for name, row in layers.items():
        for key in ("calls", "self_s", "total_s"):
            values[f"{name}.{key}"] = row[key]
    for verdict, n in first["clauses"].items():
        values[f"reporting.clauses.{verdict.replace('-', '_')}"] = n
    for err in ("CapExceeded", "InternalInvariantViolation"):
        values[f"errors.{err}"] = first["errors"].get(err, 0)
    values["reach.CapExceeded"] = sum(r["outcome"] == "CapExceeded" for r in reach)
    values["trace.coverage"] = coverage
    values["trace.overhead_ratio"] = overhead
    return {n: {"value": values.get(n, 0), "unit": u} for n, u in per_layer_metrics()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--shuffle", help=argparse.SUPPRESS)
    ap.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "baerlab" / "__init__.py").is_file():
        print(f"error: no engine source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import battery

    if args.workload not in battery.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(battery.WORKLOADS)}")
    if args.worker:
        print(json.dumps(worker(args.workload, args.shuffle, args.traced, args.probe)))
        return 0
    summary = report(args, run_reps(args))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
