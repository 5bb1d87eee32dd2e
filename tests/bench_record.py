"""Record the pin rows that count engine work, with their seconds, as JSON.

    ulimit -v 1000000; python3 -B tests/bench_record.py BENCH_<n>.json

Run from the root of a checkout.  The rows are those of ``pins.ROWS`` that
pin :func:`pins.counting`'s closures: the three in-process ``answers`` rows
and the ``symmetric(7) lattice`` row.  Each is run and checked as
``pins.main`` does, and the file gets, per row, what it gave (digests,
counts, failures) and its seconds, with the Python version and machine.
Exits 1 if any row misses a pin.
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

import pins

ROWS = [row for row in pins.ROWS if "closures" in row[2]]


def main(path, rows=ROWS) -> int:
    recorded = {}

    def timed(name, build):
        def run():
            t0 = time.perf_counter()
            got = build()
            recorded[name] = {**got, "seconds": round(time.perf_counter() - t0, 3)}
            return got
        return run

    bad = pins.main([(name, timed(name, build), want) for name, build, want in rows])
    machine = {"python": platform.python_version(), "machine": platform.machine(),
               "cpus": os.cpu_count()}
    text = json.dumps({**machine, "rows": recorded}, indent=1, sort_keys=True)
    Path(path).write_text(text + "\n")
    return bad


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
