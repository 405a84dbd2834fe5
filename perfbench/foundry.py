"""foundry_replay: all five foundry scenarios replayed as unprepared HRQL.

Each round bootstraps every scenario's relations into one on-disk
database (the scenarios' relation names are disjoint), serves it with
the scenarios' live constraints, and replays every persona script with
:func:`repro.workloads.replay` over 1 connection — schema evolutions and
temporal foreign keys included. Every query is parsed, compiled and
planned from text, and every interleaved commit empties the
decoded-tuple cache and the plan cache, so the working set never fits
in them: a read-path gain that costs writes or cold reads shows here.

The check: the query digests and the final catalog digest must equal
those of the same replay on an embedded in-memory database.
"""

from __future__ import annotations

import os
import time

from common import DATA_SEED, check, dir_bytes, live_tuple_bytes
from loadgen import run_connections

from repro.client import connect
from repro.database import HistoricalDatabase
from repro.workloads import SCENARIOS, Knobs, catalog_digest, replay

#: Scenario scale; ops per persona stay at the foundry default (90).
SCALE = 1.0


class _TimedSession:
    """A client seen by ``replay``: every operation it sends is timed."""

    def __init__(self, client, conn):
        self._client = client
        self._conn = conn

    def query(self, source, params=None):
        return self._conn.timed("query",
                                lambda: self._client.query(source, params))

    def _mutation(self, method):
        def timed(*args):
            self._conn.timed("commit", lambda: method(*args))
        return timed

    def __getattr__(self, name):
        attr = getattr(self._client, name)
        # A schema evolution is a write acknowledged like the others. It
        # counts as a commit: at two per round it is too rare a class to
        # give a steady p50 of its own.
        if name in ("insert", "update", "terminate", "reincarnate",
                    "evolve_scheme"):
            return self._mutation(attr)
        return attr

    def transaction(self):
        return _TimedTransaction(self._client.transaction(), self._conn)


class _TimedTransaction:
    """A burst: timed from BEGIN to the acknowledged COMMIT."""

    def __init__(self, txn, conn):
        self._txn = txn
        self._conn = conn

    def __enter__(self):
        self._t0 = time.perf_counter()
        self._txn.__enter__()
        return self._txn

    def __exit__(self, exc_type, exc, tb):
        try:
            return self._txn.__exit__(exc_type, exc, tb)
        finally:
            self._conn.record("commit", self._t0, exc_type is None)


class FoundryReplay:
    #: Each round replays all 1,350 operations, scenario after scenario,
    #: so one window may hold only queries and the next only commits.
    windowed = False

    def __init__(self, seed: int, seconds: float, corrupt=None):
        # The scenario instances are fixtures, so every run replays the
        # same operations in the same order and the run's seed changes
        # nothing here: a seeded instance moves the work by a third.
        self.knobs = Knobs(seed=DATA_SEED, scale=SCALE)
        self.scenarios = [SCENARIOS[name] for name in sorted(SCENARIOS)]
        self.relations = [rel for s in self.scenarios for rel in s.relations]
        # The reference: the same replay, embedded and in memory.
        db = HistoricalDatabase("reference")
        self.reference_queries = {}
        for scenario in self.scenarios:
            scenario.bootstrap(db, self.knobs)
            self.reference_queries[scenario.name] = replay(
                db, scenario, self.knobs)
        self.reference_catalog = catalog_digest(db, self.relations)
        if corrupt == "reference":
            first = self.scenarios[0].name
            key, _ = self.reference_queries[first][0]
            self.reference_queries[first][0] = (key, "0" * 64)
        self.spec = {
            "scenarios": [s.name for s in self.scenarios],
            "rows": {rel: len(rows) for s in self.scenarios
                     for rel, rows in s.dataset(self.knobs).items()},
            "ops": {s.name: sum(len(s.script(p, self.knobs))
                                for p in s.personas)
                    for s in self.scenarios},
            "connections": 1, "sync": "always",
            "model": "closed loop, no think time; fixed work: every "
                     "persona script once per round",
            "knobs": self.knobs.to_json(),
        }

    def setup(self, rdir: str, fleet, trace_file) -> None:
        self.path = os.path.join(rdir, "db")
        db = HistoricalDatabase(path=self.path, sync="always")
        try:
            for scenario in self.scenarios:
                scenario.bootstrap(db, self.knobs, storage="disk",
                                   constraints=False)
            db.checkpoint()
        finally:
            db.close()
        server = fleet.start(
            ["server", self.path, "--port", "0", "--sync", "always"],
            trace_file=trace_file("server"),
            constraints_of=[s.name for s in self.scenarios])
        self.client = connect(server.address)

    def warmup(self) -> None:
        self.client.relations_info()

    def measure(self, budget_s: float, round_no: int):
        self.queries = {}

        def body(conn):
            session = _TimedSession(self.client, conn)
            for scenario in self.scenarios:
                self.queries[scenario.name] = replay(session, scenario,
                                                     self.knobs)

        return run_connections([body], budget_s)

    def finish(self, fleet) -> dict:
        for name, digests in self.reference_queries.items():
            check(self.queries.get(name) == digests,
                  f"{name}: served query answers differ from the "
                  f"embedded replay")
        check(catalog_digest(self.client, self.relations)
              == self.reference_catalog,
              "served catalog differs from the embedded replay")
        relations = [self.client.relation(rel) for rel in self.relations]
        self.client.close()
        fleet.stop()
        return {"space_amp": dir_bytes(self.path) / live_tuple_bytes(relations),
                "checked": sum(len(d) for d in self.queries.values())}

    def close(self) -> None:
        if hasattr(self, "client"):
            self.client.close()
