"""served_reads: read-only prepared statements over 2 connections.

The server holds hr_rehires ``EMP`` and enrollment_churn ``STUDENT`` /
``COURSE`` / ``ENROLLMENT`` on disk. Nothing writes, so nothing
invalidates the decoded-tuple cache or the prepared plans: after the
warm-up the working set fits in the caches and the time goes to the
planner, the kernels, storage decode, result encoding and client
decoding, with almost none in the database or the WAL.
"""

from __future__ import annotations

import os
import random
import time

from common import DATA_SEED, check, dir_bytes, live_tuple_bytes
from loadgen import class_stream, persona_mix, run_connections
from reads import ReadChecker, memory_env

from repro.client import connect
from repro.database import HistoricalDatabase
from repro.workloads import Knobs, get_scenario
from repro.workloads.personas import QueryOp, pairs, zipf_index

#: EMP rows: window scans then return tens of rows (about 35 at 60).
N_EMP = 60
#: enrollment_churn at its base size: 20 students, 8 courses.
ENROLL_SCALE = 1.0
CONNECTIONS = 2
SKEW = 1.2
#: The foundry personas whose reads the mix copies. The bulk loader is
#: the writer, and left out.
READ_PERSONAS = ("analyst", "dashboard")
STATEMENTS = {
    "point": "SELECT IF NAME = :name IN EMP",
    "window": "SELECT WHEN SALARY >= :min DURING [:lo, :hi] IN EMP",
    "timeslice": "TIMESLICE EMP TO [:lo, :hi]",
    "join": "(SELECT IF MAJOR = :m IN STUDENT) NATURAL JOIN ENROLLMENT",
}
#: Latency classes the end-to-end detail reports.
CLASS_OF = {"point": "point", "window": "scan", "timeslice": "scan",
            "join": "join"}


def read_class(op):
    """The class of a persona's read, or None for a write.

    Key lookups (``SELECT IF NAME`` / ``SID``) are point reads, windows
    and time slices are scans, and the enrollment analyst's
    ``SELECT IF MAJOR`` lookup is the one the join extends with the
    majors' enrollments.
    """
    if not isinstance(op, QueryOp):
        return None
    if op.hrql.startswith("TIMESLICE"):
        return "timeslice"
    if " DURING " in op.hrql:
        return "window"
    return "join" if "MAJOR" in op.hrql else "point"


class ServedReads:

    def __init__(self, seed: int, seconds: float, corrupt=None):
        self.seed = seed
        hr, en = get_scenario("hr_rehires"), get_scenario("enrollment_churn")
        self.scenarios = [
            (hr, Knobs(seed=DATA_SEED, scale=N_EMP / hr.base_entities)),
            (en, Knobs(seed=DATA_SEED, scale=ENROLL_SCALE)),
        ]
        schemes, rows = {}, {}
        for scenario, knobs in self.scenarios:
            schemes.update(scenario.schemes(knobs))
            rows.update(scenario.dataset(knobs))
        self.rows = {name: len(r) for name, r in rows.items()}
        # Operations per class in the read personas' scripts, e.g.
        # point 171, window 113, timeslice 57, join 8 at the fixtures.
        self.mix = persona_mix(
            (scenario.script(persona, knobs)
             for scenario, knobs in self.scenarios
             for persona in READ_PERSONAS), read_class)
        self.pool = self._pool(rows, hr)
        self.checker = ReadChecker(STATEMENTS, self.pool,
                                   memory_env(schemes, rows))
        if corrupt == "reference":
            self.checker.corrupt()
        self.spec = {
            "rows": self.rows, "connections": CONNECTIONS,
            "model": "closed loop, no think time", "sync": "always",
            "mix": dict(self.mix), "mix_from": {
                "scenarios": [s.name for s, _ in self.scenarios],
                "personas": READ_PERSONAS},
            "statements": STATEMENTS,
            "bindings": {cls: len(b) for cls, b in self.pool.items()},
            "key_skew": SKEW,
        }

    def _pool(self, rows, hr):
        r = random.Random(f"{DATA_SEED}:served_reads:pool")
        names = sorted(values["NAME"] for _, values in rows["EMP"])
        r.shuffle(names)  # Zipf rank -> key, seeded
        lo_spot, hi_spot = hr.hotspot
        windows = set()
        while len(windows) < 48:
            lo = lo_spot + r.randrange(hi_spot - lo_spot)
            windows.add(pairs({"min": 25_000 + 5_000 * r.randrange(6),
                               "lo": lo, "hi": lo + 2 + r.randrange(8)}))
        slices = set()
        while len(slices) < 24:
            at = r.randrange(0, hr.horizon - 10)
            slices.add(pairs({"lo": at, "hi": at + r.randrange(6)}))
        majors = sorted({values["MAJOR"] for _, values in rows["STUDENT"]})
        return {
            "point": [pairs({"name": n}) for n in names],
            "window": sorted(windows, key=repr),
            "timeslice": sorted(slices, key=repr),
            "join": [pairs({"m": m}) for m in majors],
        }

    # -- a round ---------------------------------------------------------

    def setup(self, rdir: str, fleet, trace_file) -> None:
        self.path = os.path.join(rdir, "db")
        db = HistoricalDatabase(path=self.path, sync="always")
        try:
            for scenario, knobs in self.scenarios:
                scenario.bootstrap(db, knobs, storage="disk",
                                   constraints=False)
            db.checkpoint()
        finally:
            db.close()
        server = fleet.start(["server", self.path, "--port", "0",
                              "--sync", "always"],
                             trace_file=trace_file("server"))
        self.clients = [connect(server.address) for _ in range(CONNECTIONS)]

    def warmup(self) -> None:
        self.prepared = [{cls: c.prepare(q) for cls, q in STATEMENTS.items()}
                         for c in self.clients]
        # Every binding once, so each connection's plans and the server's
        # decoded-tuple cache are warm before timing starts.
        for prepared in self.prepared:
            for cls, bindings in self.pool.items():
                for binding in bindings:
                    prepared[cls].query(dict(binding))

    def _draw(self, r: random.Random, classes):
        cls = next(classes)
        bindings = self.pool[cls]
        return cls, bindings[zipf_index(r, len(bindings), SKEW)]

    def measure(self, budget_s: float, round_no: int):
        self.kept = []

        def body_for(index):
            prepared = self.prepared[index]
            r = random.Random(f"{self.seed}:served_reads:{round_no}:{index}")
            classes = class_stream(r, self.mix)
            keep, kept = self.checker.keeper()
            self.kept.append(kept)

            def body(conn):
                stop = time.perf_counter() + budget_s
                while time.perf_counter() < stop:
                    cls, binding = self._draw(r, classes)
                    result = conn.timed(
                        CLASS_OF[cls],
                        lambda: prepared[cls].query(dict(binding)))
                    if result is not None:
                        keep(cls, binding, result)
            return body

        return run_connections([body_for(i) for i in range(CONNECTIONS)],
                               budget_s)

    def finish(self, fleet) -> dict:
        relations = [self.clients[0].relation(name) for name in self.rows]
        for client in self.clients:
            client.close()
        fleet.stop()
        checked = sum(self.checker.verify(kept) for kept in self.kept)
        check(checked > 0, "no answer was checked")
        return {"space_amp": dir_bytes(self.path) / live_tuple_bytes(relations),
                "checked": checked}

    def close(self) -> None:
        for client in getattr(self, "clients", ()):
            client.close()
