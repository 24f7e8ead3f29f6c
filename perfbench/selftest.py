"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs a short ``spec-to-rows`` benchmark (the cheapest workload that
checks costs, memo sizes, row digests and counts) against doctored
copies of the goldens and of the recorded counts, and requires each
doctored run to report ``"correct": false`` and exit non-zero while a
clean run passes.  Exits 0 when the gate holds, 1 otherwise.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden")
SCRATCH = os.path.join(HERE, "out", "selftest")
SEED = 99


def bench(golden_dir: str) -> "bool | None":
    """The run's ``correct`` flag, or None if it crashed or disagreed
    with its own exit code."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "spec-to-rows",
           "--seed", str(SEED), "--seconds", "1", "--trace", "0", "--golden", golden_dir]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    try:
        correct = json.loads(done.stdout.strip().splitlines()[-1])["correct"]
    except (IndexError, ValueError, KeyError):
        return None
    return correct if (done.returncode == 0) == correct else None


def doctored(case: str, edit) -> str:
    """A copy of the goldens with one file edited by ``edit(costs, rows)``."""
    target = os.path.join(SCRATCH, case)
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(GOLDEN, target)
    paths = {name: os.path.join(target, f"{name}.json") for name in ("costs", "rows")}
    data = {}
    for name, path in paths.items():
        with open(path) as fh:
            data[name] = json.load(fh)
    edit(data["costs"], data["rows"])
    for name, path in paths.items():
        with open(path, "w") as fh:
            json.dump(data[name], fh)
    return target


def main() -> int:
    # SEED is reserved for this test: start without recorded counts, so
    # the clean run records them afresh.
    record_glob = os.path.join(HERE, "out", "counts", f"*-spec-to-rows-seed{SEED}-*.json")
    for stale in glob.glob(record_glob):
        os.remove(stale)
    results = {}
    results["clean run passes"] = bench(GOLDEN) is True

    def cost(costs, rows):
        costs["relational"]["Q2/1/0"]["cost"] *= 1.001

    def digest(costs, rows):
        rows["oodb/Q3/1/2"]["digest"] = "0" * 64

    def memo(costs, rows):
        costs["oodb"]["Q1/1/4"]["gen"][1] += 1

    for case, edit in (("golden cost", cost), ("golden row digest", digest), ("golden memo count", memo)):
        results[f"doctored {case} fails"] = bench(doctored(case.replace(" ", "-"), edit)) is False

    # The clean run recorded this seed's deterministic counts; doctor them.
    records = glob.glob(record_glob)
    ok = len(records) == 1
    if ok:
        with open(records[0]) as fh:
            original = fh.read()
        counts = json.loads(original)
        counts["search.trans_fired"] += 1
        try:
            with open(records[0], "w") as fh:
                json.dump(counts, fh)
            ok = bench(GOLDEN) is False
        finally:
            with open(records[0], "w") as fh:
                fh.write(original)
    results["doctored recorded count fails"] = ok
    shutil.rmtree(SCRATCH, ignore_errors=True)

    for name, passed in results.items():
        print(f"{'ok  ' if passed else 'FAIL'} {name}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
