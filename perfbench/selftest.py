"""Tests of the benchmark harness itself (not of the engine).

    python3 -m pytest perfbench/selftest.py

The file name keeps these out of the engine's own test run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import battery  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from baerlab import baer, group, structure  # noqa: E402


def test_self_time_is_duration_minus_children():
    # a[0,10] holds b[1,4] and a nested a[5,9], which holds c[6,8].
    names = ["a", "b", "c"]
    name_of = [0, 1, 0, 2]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 8.0]
    outermost = [1, 1, 0, 1]
    got = tracer.summarise(names, name_of, parent, start, end, outermost)
    assert got["a"] == {"calls": 2, "self_s": (10 - 3 - 4) + (4 - 2), "total_s": 10.0}
    assert got["b"] == {"calls": 1, "self_s": 3.0, "total_s": 3.0}
    assert got["c"] == {"calls": 1, "self_s": 2.0, "total_s": 2.0}
    # Self times partition the root span.
    assert sum(row["self_s"] for row in got.values()) == 10.0


def test_nominal_seconds_drop_probe_time_and_scale_by_speed():
    sampler = speed.SpeedSampler()
    nominal = speed.NOMINAL_PROBE_S
    # One probe at half speed, one at nominal speed; the second is outside [0, 1.5).
    sampler.samples = [(1.0, 2 * nominal), (2.0, nominal)]
    assert sampler.speed() == 0.75
    assert sampler.nominal_seconds(0.0, 1.5) == (1.5 - 2 * nominal) * 0.75


def test_sampler_probes_while_code_runs():
    with speed.SpeedSampler() as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert 0.05 < sampler.speed() < 20


def test_wrappers_see_calls_through_from_import_bindings():
    original = baer.centraliser
    cayley = group.Group.__dict__["cayley"]
    tr = tracer.Tracer()
    with tr.installed():
        assert baer.centraliser is not original
        assert structure.centraliser is baer.centraliser
        cases = battery.setup("quotient-wall", 1, ["symmetric(3)"])
        _label, F = cases[0].factorisations[0]
        baer.check_theorem_f_equivalence(F)
    assert baer.centraliser is original is group.centraliser
    assert group.Group.__dict__["cayley"] is cayley
    summary = tr.summary()
    for layer in ("group.centraliser", "structure.sylow", "group.cayley"):
        assert summary[layer]["calls"] > 0, layer
    # Every centraliser span descends from the theorem-F span.
    theorem_f = tr.names.index("baer.check_theorem_f_equivalence")
    central = tr.names.index("group.centraliser")
    for i in range(len(tr.start)):
        if tr.name_of[i] == central:
            j = i
            while j >= 0 and tr.name_of[j] != theorem_f:
                j = tr.parent[j]
            assert j >= 0
            assert tr.start[j] <= tr.start[i] <= tr.end[i] <= tr.end[j]


def _outcome(seed, corpus):
    cases = battery.setup("subgroup-sweep", seed, corpus)
    order = [(c.label, [label for label, _F in c.factorisations]) for c in cases]
    return order, battery.run_battery(cases)


def test_seed_shuffles_order_but_not_outcomes():
    corpus = ["symmetric(3)", "cyclic(6)", "dihedral(8)"]
    runs = [_outcome(seed, corpus) for seed in ("1:0", "2:0", "3:0", "1:0")]
    orders = [order for order, _out in runs]
    assert len({repr(o) for o in orders}) > 1
    assert orders[0] == orders[3]
    first = runs[0][1]
    for _order, out in runs[1:]:
        assert out.rows == first.rows
        assert out.digest() == first.digest()
    assert first.attempted > 0 and not first.check_failures()


def test_manifest_matches_the_harness():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(battery.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] == run.per_layer_metrics()


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "quotient-wall", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
