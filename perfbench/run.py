"""The repository benchmark: one command, any workload, checked results.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``BENCHMARK.json`` for both lists and
``perfbench/README.md`` for what each workload measures). The last line
of standard output is one JSON object; the line before it is a JSON
object with the detail (per-class latencies, error rate, the envelope).

Every run sets up the system several times (fresh directory, bootstrap,
checkpoint, server start, connect), measures some of the set-ups — for a
share of ``--seconds``, or for the workload's fixed amount of work — and
checks the outputs of each. A failed check prints the result with
``"correct": false`` (and the operations attempted until then) and
exits 1; anything else that goes wrong — a server that does not start,
a hung connection, the wall-clock deadline — exits 2 or 3 without a
result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (SRC, WORK_ROOT, WORKDIR, BenchError,  # noqa: E402
                    CheckFailed, Fleet, host_envelope, latency_summary,
                    median)

#: The whole run must end within this many seconds.
DEADLINE_S = 170
#: Measured set-ups per untraced run, unless the workload sets its own
#: ``rounds``; each is measured for seconds / rounds.
ROUNDS = 3
#: Further set-ups per untraced run that only time the set-up. setup_s
#: is the median of every set-up but the run's first, which also
#: compiles the servers' bytecode and warms the load generator's own
#: bootstrap and checkpoint code.
EXTRA_SETUPS = 8
#: Least operations per throughput window.
WINDOW_OPS = 200


#: Workload name -> (module, class) under perfbench/.
WORKLOADS = {
    "served_reads": ("served", "ServedReads"),
    "durable_commits": ("durable", "DurableCommits"),
    "foundry_replay": ("foundry", "FoundryReplay"),
    "sharded_txn": ("sharded", "ShardedTxn"),
}


class DeadlinePassed(Exception):
    """The run outlived DEADLINE_S: it fails instead of hanging."""


def _on_deadline(signum, frame):
    raise DeadlinePassed(f"wall-clock deadline of {DEADLINE_S}s passed")


def time_setup(workload, rdir: str) -> float:
    """One set-up, torn down at once; returns its duration."""
    os.makedirs(rdir)
    fleet = Fleet(rdir)
    try:
        t0 = time.perf_counter()
        workload.setup(rdir, fleet, lambda label: None)
        return time.perf_counter() - t0
    finally:
        workload.close()
        fleet.stop()


def run_round(workload, rdir: str, budget_s: float, round_no: int,
              traced: bool) -> dict:
    import tracing

    os.makedirs(rdir)
    fleet = Fleet(rdir)

    def trace_file(label: str):
        return os.path.join(rdir, f"trace-{label}.json") if traced else None

    try:
        t0 = time.perf_counter()
        workload.setup(rdir, fleet, trace_file)
        setup_s = time.perf_counter() - t0
        workload.warmup()
        if traced:
            fleet.trace_on()
            tracing.TRACER.enabled = True
        conns, elapsed = workload.measure(budget_s, round_no)
        dumps = []
        if traced:
            tracing.TRACER.enabled = False
            dumps = fleet.trace_dump() + [tracing.TRACER.dump()]
        rss_mb = fleet.peak_rss_mb()
        try:
            end = workload.finish(fleet)
        except CheckFailed as exc:
            end = {"failure": str(exc)}
    finally:
        workload.close()
        fleet.stop()
    samples = [s for conn in conns for s in conn.samples]
    errors = [e for conn in conns for e in conn.errors]
    return {"setup_s": setup_s, "elapsed": elapsed, "samples": samples,
            "windows": window_rates(samples),
            "errors": errors, "rss_mb": rss_mb, "dumps": dumps, **end}


def window_rates(samples, size: int = WINDOW_OPS):
    """Operations per second of each window of consecutive completed
    operations: as many equal windows of at least *size* operations as
    the round holds (one if it holds fewer). A window's rate is its
    operations over the time from its first start to its last
    completion."""
    ok = sorted((s[3], s[1]) for s in samples if s[2])
    if not ok:
        return []
    count = max(1, len(ok) // size)
    bounds = [len(ok) * i // count for i in range(count + 1)]
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = ok[lo:hi]
        began = min(end - seconds for end, seconds in chunk)
        out.append(len(chunk) / (chunk[-1][0] - began))
    return out


def rates(workload, rounds):
    """The throughputs whose median a run reports as ``ops_s``.

    Normally every window of every round (a window never spans two
    rounds). A workload whose operation sequence changes character as
    it goes (``windowed = False``) is measured per whole round instead,
    since its windows are not alike.
    """
    if getattr(workload, "windowed", True):
        return [w for r in rounds for w in r["windows"]]
    return [sum(s[2] for s in r["samples"]) / r["elapsed"] for r in rounds]


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def summarize(rounds) -> dict:
    samples = [s for r in rounds for s in r["samples"]]
    ok = [s for s in samples if s[2]]
    classes = {}
    for cls in sorted({s[0] for s in ok}):
        classes[cls] = latency_summary([s[1] for s in ok if s[0] == cls])
    return {"attempted": len(samples), "failed": len(samples) - len(ok),
            "ok": len(ok), "classes": classes}


def end_to_end(rounds, summary, extra_setups, workload) -> dict:
    """The bounded metrics. The two latencies weigh every operation
    class of the workload alike, whatever its share of the mix: each is
    the geometric mean over the classes of the class's p50 (p95) over
    the run, so a class that slows by a factor f moves it by f ** (1/k)
    with k classes."""
    setups = [r["setup_s"] for r in rounds][1:] + list(extra_setups)
    classes = summary["classes"].values()
    return {
        "setup_s": (median(setups), "s"),
        "ops_s": (median(rates(workload, rounds)), "1/s"),
        "class_p50_ms": (geomean([c["p50_ms"] for c in classes]), "ms"),
        "class_p95_ms": (geomean([c["p95_ms"] for c in classes]), "ms"),
        "server_rss_mb": (median([r["rss_mb"] for r in rounds]), "MiB"),
        "space_amp": (median([r["space_amp"] for r in rounds]), "ratio"),
    }


def per_layer(workload, untraced, traced) -> dict:
    import tracing

    plain = median(rates(workload, [untraced]))
    seen = median(rates(workload, [traced]))
    ok_ops = summarize([traced])["ok"]
    out = tracing.layer_metrics(traced["dumps"], max(ok_ops, 1))
    out["trace.ops_s_untraced"] = (plain, "1/s")
    out["trace.ops_s_traced"] = (seen, "1/s")
    out["trace.overhead_ratio"] = (plain / seen, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=("reference", "acked"),
                        help="spoil a reference digest or the "
                             "acknowledged-commit set (self-test: the run "
                             "must then fail its check)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    module, cls = WORKLOADS[args.workload]
    workload_cls = getattr(importlib.import_module(module), cls)

    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        if args.trace:
            import tracing
            tracing.install_client_shims()
        workload = workload_cls(args.seed, args.seconds, args.corrupt)
        n_rounds = 2 if args.trace else getattr(workload, "rounds", ROUNDS)
        budget = args.seconds / n_rounds
        rounds, extra = [], []
        for i in range(n_rounds):
            rounds.append(run_round(
                workload, os.path.join(WORKDIR, f"round{i}"), budget, i,
                traced=bool(args.trace) and i == n_rounds - 1))
            if "failure" in rounds[-1]:
                summary = summarize(rounds)
                print(json.dumps({"detail": {
                    "failure": rounds[-1]["failure"],
                    "errors": [e for r in rounds for e in r["errors"]][:5]}}))
                print(json.dumps({
                    "correct": False,
                    "attempted": max(summary["attempted"], 1),
                    "failed": summary["failed"], "metrics": {}}))
                return 1
        if not args.trace:
            extra = [time_setup(workload, os.path.join(WORKDIR, f"setup{i}"))
                     for i in range(EXTRA_SETUPS)]
        summary = summarize(rounds)
        if args.trace:
            metrics = per_layer(workload, rounds[0], rounds[-1])
        else:
            metrics = end_to_end(rounds, summary, extra, workload)
        detail = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": host_envelope(), "spec": workload.spec,
            "error_rate": summary["failed"] / max(summary["attempted"], 1),
            "classes": summary["classes"],
            "setup_s_samples": [r["setup_s"] for r in rounds] + extra,
            "rates": [round(x, 3) for x in rates(workload, rounds)],
            "errors": [e for r in rounds for e in r["errors"]][:5],
        }
        print(json.dumps({"detail": detail}))
        print(json.dumps({
            "correct": True,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DeadlinePassed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(WORKDIR, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
