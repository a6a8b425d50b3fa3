"""Self-test of the benchmark's checks: each planted error must fail the run.

One cheap operation per planted error is run in-process. Its true result
must pass the workload's checks; the same result with one wrong count, one
wrong label, or a failure the operation is not allowed must not.
"""

from __future__ import annotations

import copy
import shutil
import sys

import workloads
from run import OUT


def planted_errors():
    """(workload, operation name, how to corrupt its result, what is wrong)."""

    def wrong_count(res):
        res["result"]["z"] = str(int(res["result"]["z"]) + 1)

    def wrong_phase_label(res):
        entry = next(e for e in res["result"]["trace"] if e["kind"] == "pure")
        entry["pair"] = {"a": entry["pair"]["b"][:1], "b": entry["pair"]["a"]}

    def wrong_class_label(res):
        res["result"]["equipartition"] = "transitive"

    def failed(res):
        # What cli_run returns when a command exits 4, as `count` does when
        # brute force and transfer disagree.
        res.clear()
        res.update({"rc": 4, "error": ["OracleMismatch: brute != transfer"]})

    def crashed(res):
        # What run_round records when an operation raises.
        res.update({"rc": 1, "error": ["MemoryError: "]})

    return (
        ("count", "count wr m=2 d=4 transfer", wrong_count, "wrong count"),
        ("chain", "sample wr m=4 d=4 pure", wrong_phase_label, "wrong phase label"),
        ("structure", "analyze path:10", wrong_class_label, "wrong class label"),
        ("count", "count wr m=2 d=4 transfer", failed, "failed operation"),
        ("count", "count k3 m=2 d=5 transfer", crashed, "counted failure with another exit code"),
    )


def self_test() -> int:
    workdir = OUT / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ok = True
    try:
        for workload, name, corrupt, what in planted_errors():
            ops = [op for op in workloads.build(workload, 0, workdir) if op.name == name]
            res = ops[0].run()
            clean = workloads.evaluate(workload, ops, [res])
            bad = copy.deepcopy(res)
            corrupt(bad)
            caught = workloads.evaluate(workload, ops, [bad])
            passed = not clean and bool(caught)
            ok &= passed
            print(f"{'ok  ' if passed else 'FAIL'} {what} in {workload}/{name}: "
                  f"clean={clean or 'passes'} planted={caught or 'not caught'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit("run it as: python3 bench/run.py --self-test")
