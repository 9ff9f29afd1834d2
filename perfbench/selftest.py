#!/usr/bin/env python3
"""The benchmark's own test: its correctness gate passes and can fail.

    python3 perfbench/selftest.py

For every workload, a short run of unmodified code must be bit-equal to
the oracle (zero failed steps, "correct": true). The same run with
--corrupt, which nudges one float of each trained table (and one loss
entry of dlrm_rec) by one ulp before the comparison, must count every
step as failed, report "correct": false and exit non-zero: no
throughput from such a run may read as a pass. Exits 0 when all hold.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ["zipf_embed", "dlrm_rec"]


def run(workload, corrupt):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main():
    failures = []
    for workload in WORKLOADS:
        before = len(failures)
        code, result = run(workload, corrupt=False)
        if (code != 0 or result is None or not result["correct"]
                or result["failed"] != 0 or result["attempted"] < 1):
            failures.append("%s: clean run not bit-equal (exit %d, %s)"
                            % (workload, code, result))
        code, result = run(workload, corrupt=True)
        if (code == 0 or result is None or result["correct"]
                or result["attempted"] < 1
                or result["failed"] != result["attempted"]):
            failures.append("%s: corrupted run not counted failed "
                            "(exit %d, %s)" % (workload, code, result))
        print("%s: %s" % (workload,
                            "ok" if len(failures) == before else "FAILED"))
    for failure in failures:
        print("FAIL " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
