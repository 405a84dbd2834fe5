"""durable_commits: small write transactions under ``sync="always"``.

Each of the 2 connections owns its own key range of ``EMP`` and walks
every key through the paper's life cycle — hire (insert), raise
(update), fire (terminate), rehire (reincarnate) — with the live
``NonDecreasing(EMP, SALARY)`` constraint on. The work is fixed by the
seed and the run length alone, not by how fast the server is, so the
database ends every run at the same size. The time goes to write-set
build, validation, apply, the constraint sweep, the WAL append, the
group fsync and publication, with none in query planning.

The check: the server is killed (SIGKILL) after the run; reopening its
directory embedded must show exactly the state an embedded sequential
replay of the acknowledged transactions produces.
"""

from __future__ import annotations

import os
import random

from common import DATA_SEED, check, dir_bytes, live_tuple_bytes
from loadgen import class_stream, run_connections

from repro.client import connect
from repro.core.lifespan import Lifespan
from repro.database import HistoricalDatabase
from repro.workloads import Knobs, catalog_digest, get_scenario

N_EMP = 60
CONNECTIONS = 2
#: Transactions per connection per second of measuring budget. Fixed,
#: so the amount of work does not depend on the server's speed: 160 per
#: connection per round at the benchmark's 25 s.
TXNS_PER_SECOND = 32
#: Share of transactions that carry two operations (on two keys).
PAIR_SHARE = 0.4
#: Chronons each rehire cycle (rehire, raise, fire) advances a key by.
CYCLE = 4
HORIZON = 120


def _salary(at: int) -> int:
    """Non-decreasing in time, above every generated salary."""
    return 150_000 + 100 * at


def key_steps(name: str, start: int):
    """One key's whole life: hire, then (raise, fire, rehire) cycles."""
    steps = [("insert", name, Lifespan.interval(start, HORIZON),
              {"NAME": name, "DEPT": "Tools", "SALARY": _salary(start)})]
    t = start
    while t + CYCLE + 2 <= HORIZON:
        steps.append(("update", name, t + 1, {"SALARY": _salary(t + 1)}))
        steps.append(("terminate", name, t + 2))
        t += CYCLE
        steps.append(("reincarnate", name, Lifespan.interval(t, HORIZON),
                      {"NAME": name, "DEPT": "Tools", "SALARY": _salary(t)}))
    return steps


def transactions(seed: int, conn: int, n_txns: int):
    """The connection's transactions: lists of one or two operations.

    Keys are interleaved round-robin, so consecutive operations touch
    different keys; each key's own steps stay in order.
    """
    r = random.Random(f"{seed}:durable_commits:{conn}")
    ops_needed = int(n_txns * (1 + PAIR_SHARE)) + 2
    per_key = len(key_steps("x", 3))
    n_keys = -(-ops_needed // per_key)
    lives = [key_steps(f"w{conn}-{k:03d}", r.randrange(4))
             for k in range(n_keys)]
    ops = [life[i] for i in range(per_key) for life in lives if i < len(life)]
    sizes = class_stream(r, ((2, round(10 * PAIR_SHARE)),
                             (1, round(10 * (1 - PAIR_SHARE)))))
    txns, cursor = [], 0
    while len(txns) < n_txns:
        size = next(sizes)
        txns.append(ops[cursor:cursor + size])
        cursor += size
    return txns


def apply_op(target, op) -> None:
    kind, name = op[0], op[1]
    if kind == "insert":
        target.insert("EMP", op[2], op[3])
    elif kind == "update":
        target.update("EMP", (name,), op[2], op[3])
    elif kind == "terminate":
        target.terminate("EMP", (name,), op[2])
    else:
        target.reincarnate("EMP", (name,), op[2], op[3])


def run_txn(session, txn) -> None:
    if len(txn) == 1:
        apply_op(session, txn[0])
        return
    with session.transaction() as t:
        for op in txn:
            apply_op(t, op)


class DurableCommits:
    #: Each round runs the same transactions, and they get dearer as the
    #: keys' histories grow, so one window is not like the next.
    windowed = False
    #: Rounds are the units, so more of them: the median of five.
    rounds = 5

    def __init__(self, seed: int, seconds: float, corrupt=None):
        self.seed = seed
        self.corrupt = corrupt
        self.scenario = get_scenario("hr_rehires")
        self.knobs = Knobs(seed=DATA_SEED,
                           scale=N_EMP / self.scenario.base_entities)
        self.spec = {
            "rows": {"EMP": N_EMP}, "connections": CONNECTIONS,
            "model": "closed loop, no think time; fixed work of "
                     f"{TXNS_PER_SECOND} transactions per connection per "
                     "second of budget",
            "sync": "always", "constraints": ["NonDecreasing(EMP, SALARY)"],
            "mix": {"single-op auto-commit": 1 - PAIR_SHARE,
                    "two-op transaction": PAIR_SHARE},
            "ops": "hire, raise, fire, rehire per key, keys disjoint "
                   "per connection",
        }

    def setup(self, rdir: str, fleet, trace_file) -> None:
        self.path = os.path.join(rdir, "db")
        db = HistoricalDatabase(path=self.path, sync="always")
        try:
            self.scenario.bootstrap(db, self.knobs, storage="disk")
            db.checkpoint()
        finally:
            db.close()
        self.server = fleet.start(
            ["server", self.path, "--port", "0", "--sync", "always"],
            trace_file=trace_file("server"), constraints_of=["hr_rehires"])
        self.clients = [connect(self.server.address)
                        for _ in range(CONNECTIONS)]

    def warmup(self) -> None:
        for client in self.clients:
            client.query("SELECT IF NAME = :n IN EMP", {"n": "emp0000"})

    def measure(self, budget_s: float, round_no: int):
        n_txns = int(budget_s * TXNS_PER_SECOND)
        self.acked = [[] for _ in range(CONNECTIONS)]

        def body_for(index):
            client = self.clients[index]
            txns = transactions(self.seed, index, n_txns)
            acked = self.acked[index]

            def body(conn):
                for txn in txns:
                    conn.timed("commit", lambda: run_txn(client, txn))
                    if conn.samples[-1][2]:
                        acked.append(txn)
            return body

        return run_connections([body_for(i) for i in range(CONNECTIONS)],
                               budget_s)

    def finish(self, fleet) -> dict:
        for client in self.clients:
            client.close()
        self.server.kill()
        size = dir_bytes(self.path)
        db = HistoricalDatabase(path=self.path, sync="always")
        try:
            served = catalog_digest(db, ["EMP"])
            live = live_tuple_bytes([db.relation("EMP")])
            keys = {t.key_value()[0] for t in db.relation("EMP")}
        finally:
            db.close()
        acked = [list(conn) for conn in self.acked]
        if self.corrupt == "acked":
            acked[0].pop()
        reference = HistoricalDatabase("reference")
        self.scenario.bootstrap(reference, self.knobs)
        for conn in acked:
            for txn in conn:
                for op in txn:
                    check(op[1] in keys, f"acknowledged write to {op[1]} lost")
                run_txn(reference, txn)
        check(catalog_digest(reference, ["EMP"]) == served,
              "reopened directory differs from the replay of the "
              "acknowledged transactions")
        return {"space_amp": size / live,
                "checked": sum(len(conn) for conn in acked)}

    def close(self) -> None:
        for client in getattr(self, "clients", ()):
            client.close()
