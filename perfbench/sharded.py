"""sharded_txn: a coordinator over 2 shard workers, 2 connections.

``EMP`` (hr_rehires) is hash-partitioned by ``NAME`` over two workers
running ``sync="always"``. The mix is two-key update transactions —
half with both keys on one shard (one-phase commit), half across the
shards (two-phase commit) — plus reads pinned to one key (forwarded to
one shard) and window reads (scattered to both shards and merged).

Writers update ``SALARY`` only from chronon :data:`WRITE_FROM` on, and
only on the keys their connection owns; reads look at read-only keys
or at windows ending before :data:`WRITE_FROM`. So every read has one
right answer, whatever the writers do meanwhile: the naive evaluation
over the generated rows.

The checks: every read answer matches that reference; after the run,
each worker's ``EMP`` equals an embedded sequential replay of the
acknowledged transactions restricted to that shard (so every
acknowledged cross-shard commit is on both participants); no worker
holds an in-doubt transaction; and every logged 2PC decision is commit.
"""

from __future__ import annotations

import os
import random

from common import (DATA_SEED, BenchError, check, dir_bytes,
                    live_tuple_bytes)
from loadgen import class_stream, persona_mix, run_connections
from reads import ReadChecker, digest, memory_env

from repro.client import Client, connect
from repro.core.relation import HistoricalRelation
from repro.database import HistoricalDatabase
from repro.sharding.decision import DecisionLog
from repro.sharding.placement import shard_of
from repro.workloads import Knobs, get_scenario
from repro.workloads.personas import QueryOp, pairs, zipf_index

N_EMP = 96
SHARDS = 2
CONNECTIONS = 2
#: Keys each connection updates, per shard.
WRITE_KEYS_PER_SHARD = 3
#: Writers change SALARY from this chronon on; reads end before it.
WRITE_FROM = 100
WRITE_CHRONONS = tuple(range(WRITE_FROM, 111, 2))
SKEW = 1.2
STATEMENTS = {
    "point": "SELECT IF NAME = :name IN EMP",
    "window": "SELECT WHEN SALARY >= :min DURING [:lo, :hi] IN EMP",
}
CLASS_OF = {"txn_local": "commit", "txn_cross": "commit2pc",
            "point": "point", "window": "scan"}
WARMUP_OPS = 20
#: Operations per connection per second of measuring budget. Fixed, so
#: every run commits the same transactions and ends with the same data
#: size, however fast the cluster is: 583 per connection per round at the
#: benchmark's 25 s.
OPS_PER_SECOND = 70


def op_class(op):
    """The class of an hr_rehires persona operation.

    Key lookups are point reads (forwarded to one shard); windows and
    time slices are window reads (scattered to both); every write or
    write burst is a transaction.
    """
    if not isinstance(op, QueryOp):
        return "txn"
    return "point" if op.hrql.startswith("SELECT IF") else "window"


def split_txns(mix):
    """The transactions of *mix*, half on one shard and half across two."""
    counts = dict(mix)
    txns = counts.pop("txn")
    counts["txn_local"] = txns // 2
    counts["txn_cross"] = txns - txns // 2
    return tuple(sorted(counts.items()))


class ShardedTxn:

    def __init__(self, seed: int, seconds: float, corrupt=None):
        self.seed = seed
        self.corrupt = corrupt
        self.scenario = get_scenario("hr_rehires")
        self.knobs = Knobs(seed=DATA_SEED,
                           scale=N_EMP / self.scenario.base_entities)
        self.scheme = self.scenario.schemes(self.knobs)["EMP"]
        self.rows = self.scenario.dataset(self.knobs)["EMP"]
        # Operations per class in all three hr_rehires persona scripts,
        # e.g. point 81, window 88, txn_local 50, txn_cross 51.
        self.mix = split_txns(persona_mix(
            (self.scenario.script(p, self.knobs)
             for p in self.scenario.personas), op_class))
        r = random.Random(f"{DATA_SEED}:sharded_txn:keys")
        names = [values["NAME"] for _, values in self.rows]
        writable = [values["NAME"] for lifespan, values in self.rows
                    if all(t in lifespan for t in WRITE_CHRONONS)]
        r.shuffle(writable)
        owned = {(c, s): [] for c in range(CONNECTIONS) for s in range(SHARDS)}
        readonly = sorted(set(names) - set(writable))
        for name in writable:
            shard = shard_of([name], SHARDS)
            slot = next((keys for (_, s), keys in owned.items()
                         if s == shard and len(keys) < WRITE_KEYS_PER_SHARD),
                        readonly)
            slot.append(name)
        for (c, s), keys in owned.items():
            if len(keys) != WRITE_KEYS_PER_SHARD:
                raise BenchError(f"too few writable keys on shard {s}")
        self.owned = owned
        r.shuffle(readonly)
        windows = set()
        while len(windows) < 32:
            lo = 40 + r.randrange(WRITE_FROM - 52)
            windows.add(pairs({"min": 25_000 + 5_000 * r.randrange(6),
                               "lo": lo, "hi": lo + 2 + r.randrange(8)}))
        self.pool = {"point": [pairs({"name": n}) for n in readonly],
                     "window": sorted(windows, key=repr)}
        self.checker = ReadChecker(STATEMENTS, self.pool,
                                   memory_env({"EMP": self.scheme},
                                              {"EMP": self.rows}))
        if corrupt == "reference":
            self.checker.corrupt()
        self.spec = {
            "rows": {"EMP": len(self.rows)}, "shards": SHARDS,
            "connections": CONNECTIONS, "sync": "always",
            "model": "closed loop, no think time; fixed work of "
                     f"{OPS_PER_SECOND} operations per connection per "
                     "second of budget",
            "mix": dict(self.mix), "mix_from": {
                "scenarios": [self.scenario.name],
                "personas": list(self.scenario.personas)},
            "statements": STATEMENTS,
            "write_keys": {f"conn{c}/shard{s}": len(k)
                           for (c, s), k in owned.items()},
            "read_bindings": {cls: len(b) for cls, b in self.pool.items()},
        }

    # -- a round ---------------------------------------------------------

    def setup(self, rdir: str, fleet, trace_file) -> None:
        self.rdir = rdir
        self.workers = []
        for shard in range(SHARDS):
            path = os.path.join(rdir, f"shard{shard}")
            self.workers.append(fleet.start(
                ["sharding", "worker", path, "--port", "0",
                 "--shard-id", str(shard), "--sync", "always"],
                trace_file=trace_file(f"shard{shard}")))
        self.coord_path = os.path.join(rdir, "coordinator")
        shard_args = []
        for worker in self.workers:
            shard_args += ["--shard", "%s:%d" % worker.address]
        coordinator = fleet.start(
            ["sharding", "coordinator", self.coord_path, "--port", "0",
             *shard_args], trace_file=trace_file("coordinator"))
        admin = connect(coordinator.address)
        try:
            admin.create_relation(
                self.scheme, HistoricalRelation.from_rows(
                    self.scheme, self.rows).tuples, storage="disk")
            admin.checkpoint()
        finally:
            admin.close()
        self.clients = [connect(coordinator.address)
                        for _ in range(CONNECTIONS)]

    def warmup(self) -> None:
        for index, client in enumerate(self.clients):
            r = random.Random(f"{self.seed}:sharded_txn:warmup:{index}")
            classes = class_stream(r, self.mix)
            for _ in range(WARMUP_OPS):
                cls, arg = self._draw(r, classes, index)
                if cls in STATEMENTS:
                    client.query(STATEMENTS[cls], dict(arg))

    def _draw(self, r: random.Random, classes, index: int):
        cls = next(classes)
        if cls in STATEMENTS:
            bindings = self.pool[cls]
            return cls, bindings[zipf_index(r, len(bindings), SKEW)]
        if cls == "txn_local":
            shard = r.randrange(SHARDS)
            a, b = r.sample(self.owned[(index, shard)], 2)
        else:
            a = r.choice(self.owned[(index, 0)])
            b = r.choice(self.owned[(index, 1)])
        updates = tuple((key, r.choice(WRITE_CHRONONS),
                         200_000 + 100 * r.randrange(1000))
                        for key in (a, b))
        return cls, updates

    @staticmethod
    def _commit(client, updates) -> None:
        with client.transaction() as txn:
            for key, at, salary in updates:
                txn.update("EMP", (key,), at, {"SALARY": salary})

    def measure(self, budget_s: float, round_no: int):
        self.kept = []
        self.acked = [[] for _ in range(CONNECTIONS)]

        def body_for(index):
            client = self.clients[index]
            r = random.Random(f"{self.seed}:sharded_txn:{round_no}:{index}")
            classes = class_stream(r, self.mix)
            keep, kept = self.checker.keeper()
            self.kept.append(kept)
            acked = self.acked[index]

            def body(conn):
                for _ in range(int(budget_s * OPS_PER_SECOND)):
                    cls, arg = self._draw(r, classes, index)
                    if cls in STATEMENTS:
                        result = conn.timed(
                            CLASS_OF[cls],
                            lambda: client.query(STATEMENTS[cls], dict(arg)))
                        if result is not None:
                            keep(cls, arg, result)
                    else:
                        conn.timed(CLASS_OF[cls],
                                   lambda: self._commit(client, arg))
                        if conn.samples[-1][2]:
                            acked.append((cls, arg))
            return body

        return run_connections([body_for(i) for i in range(CONNECTIONS)],
                               budget_s)

    def finish(self, fleet) -> dict:
        for client in self.clients:
            client.close()
        served = []
        for worker in self.workers:
            probe = Client(*worker.address)
            try:
                check(not probe.status().get("in_doubt"),
                      "a shard worker holds an in-doubt transaction")
                served.append(probe.relation("EMP"))
            finally:
                probe.close()
        fleet.stop()

        acked = [list(conn) for conn in self.acked]
        if self.corrupt == "acked":
            acked[0].pop()
        reference = HistoricalDatabase("reference")
        reference.create_relation(
            self.scheme,
            HistoricalRelation.from_rows(self.scheme, self.rows).tuples)
        cross = 0
        for conn in acked:
            for cls, updates in conn:
                self._commit(reference, updates)
                cross += cls == "txn_cross"
        expected = reference.relation("EMP")
        for shard, relation in enumerate(served):
            part = HistoricalRelation(
                self.scheme, [t for t in expected
                              if shard_of(list(t.key_value()), SHARDS)
                              == shard])
            check(digest(relation) == digest(part),
                  f"shard {shard} differs from the replay of the "
                  f"acknowledged transactions")
        decisions = DecisionLog(os.path.join(self.coord_path,
                                             "decisions.log"))
        try:
            outcomes = decisions.decided()
        finally:
            decisions.close()
        check(all(o == "commit" for o in outcomes.values()),
              "a logged 2PC decision is not commit")
        check(len(outcomes) >= cross,
              "fewer commit decisions than acknowledged cross-shard commits")
        checked = sum(self.checker.verify(kept) for kept in self.kept)
        dirs = [os.path.join(self.rdir, f"shard{s}") for s in range(SHARDS)]
        return {"space_amp": dir_bytes(*dirs, self.coord_path)
                / live_tuple_bytes(served),
                "checked": checked + sum(len(c) for c in acked)}

    def close(self) -> None:
        for client in getattr(self, "clients", ()):
            client.close()
