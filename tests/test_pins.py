"""The pin table of ``pins.py``: its runner reports every missed pin, and the
rows that take under a second here pass in tier-1 too."""

import json
import re
from pathlib import Path

import pytest

import bench_record
import pins

ROWS = {name: (name, build, want) for name, build, want in pins.ROWS}
FAST_ROWS = ("sweep smoke", "S7 x S7 lazy", "S3 x C5 lazy", "S7 x C2", "subgroup-sweep answers",
             "quotient-wall answers", "direct-products answers")


@pytest.mark.parametrize("name", FAST_ROWS)
def test_fast_rows_hold_and_every_changed_pin_is_reported(name, capsys):
    _name, build, want = ROWS[name]
    got = build()
    assert pins.main([(name, lambda: got, want)]) == 0
    for key, value in want.items():
        assert pins.main([(name, lambda: got, {**want, key: f"not {value}"})]) == 1, key
    assert pins.main([(name, lambda: {**got, "failures": ["planted"]}, want)]) == 1
    assert capsys.readouterr().out.count("MISMATCH") == len(want) + 1


def test_a_planted_wrong_digest_fails_the_runner(capsys):
    name, build, want = ROWS["S7 x S7 lazy"]
    assert pins.main([(name, build, {**want, "digest": "0" * 16})]) == 1
    assert "digest is '8a75d36276913218', pinned '0000000000000000'" in capsys.readouterr().out


def test_a_changed_witness_moves_the_answers_and_not_the_digest(monkeypatch):
    # The digest reads verdicts only; the answers read every witness too.
    name, build, want = ROWS["direct-products answers"]
    monkeypatch.setattr(pins.battery.baer, "format_cycles", lambda p: "planted")
    got = build()
    assert (got["digest"], got["failures"]) == (want["digest"], [])
    assert got["answers"] != want["answers"]


def test_the_workflow_holds_no_pin():
    workflow = Path(pins.ROOT, ".github", "workflows", "tier1.yml").read_text()
    assert re.findall(r"\b[0-9a-f]{16}\b|\(\d", workflow) == []


def test_bench_record_writes_each_counted_row_and_its_seconds(tmp_path, capsys):
    assert [name for name, _build, _want in bench_record.ROWS] == [
        "subgroup-sweep answers", "quotient-wall answers", "direct-products answers",
        "symmetric(7) lattice"]
    name, build, want = ROWS["direct-products answers"]
    path = tmp_path / "bench.json"
    assert bench_record.main(path, [(name, build, want)]) == 0
    row = json.loads(path.read_text())["rows"][name]
    assert {key: row[key] for key in want} == want
    assert row["failures"] == [] and row["seconds"] > 0
    assert bench_record.main(path, [(name, build, {**want, "closures": 0})]) == 1
    assert json.loads(path.read_text())["rows"][name]["closures"] == want["closures"]
    assert capsys.readouterr().out.count("MISMATCH") == 1
