"""Prove the benchmark's checks have teeth.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Runs a smoke-sized run of every workload, which must pass its
correctness check, then the same run with each corruption the workload
can suffer — a spoiled reference digest, or an acknowledged commit
dropped from the replayed set — which must fail it, with a result of
``"correct": false`` whose failure names the check that caught it.
Exits 0 only when every run ends as expected.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

#: Smoke size: seconds of measuring budget per run, and the seed.
SECONDS = 4
SEED = 11

#: Workload -> {corruption: the text of the check that must catch it}.
CASES = {
    "served_reads": {"reference": "differs from the naive evaluation"},
    "durable_commits": {"acked": "reopened directory differs from the "
                                 "replay of the acknowledged transactions"},
    "foundry_replay": {"reference": "served query answers differ from "
                                    "the embedded replay"},
    "sharded_txn": {"reference": "differs from the naive evaluation",
                    "acked": "differs from the replay of the acknowledged "
                             "transactions"},
}


def run(workload: str, corrupt=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "0"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    detail = json.loads(lines[-2])["detail"] if len(lines) > 1 else {}
    return proc.returncode, result.get("correct"), detail.get("failure", "")


def main() -> int:
    ok = True
    for workload, corruptions in CASES.items():
        code, correct, _ = run(workload)
        passed = code == 0 and correct is True
        print(f"{workload:16s} clean      exit={code} correct={correct} "
              f"{'ok' if passed else 'UNEXPECTED'}")
        ok &= passed
        for corrupt, expected in corruptions.items():
            code, correct, failure = run(workload, corrupt)
            caught = code == 1 and correct is False and expected in failure
            print(f"{workload:16s} {corrupt:10s} exit={code} "
                  f"correct={correct} {'caught' if caught else 'MISSED'}: "
                  f"{failure}")
            ok &= caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
