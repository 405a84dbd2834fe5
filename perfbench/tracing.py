"""Spans around the program's public entry points, installed from outside.

The benchmark never edits ``src/``: a traced run replaces module and
class attributes with *shims* — thin wrappers that time the call and
record it as a span of one layer (``query.parse``, ``wal.sync``, ...).
Server processes get the shims from :mod:`launch`; the load generator
installs only the client-side ones.

Spans are accumulated in memory, per thread, and written out on
request. A layer's *self time* is a span's duration minus the time its
child spans cover; every thread here is serial, so the child spans of
a span never overlap and the sum of their durations is the time they
cover. To keep the memory flat even around per-tuple calls, each span
folds into its layer's ``[self seconds, total seconds, count]`` row
when it closes. Only the request-level spans (``client.request`` in a
caller, ``server.dispatch`` in a server) are kept one by one, keyed by
(connection, frame sequence), so the two sides of each request can be
joined afterwards: a connection is serial, so the n-th request a
client sends on a socket is the n-th frame the server dispatches on it.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Tracer:
    """Per-process span store; off until :attr:`enabled` is set."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Dict[str, list]] = []
        #: (connection port, sequence, seconds) of each client request.
        self.requests: List[tuple] = []
        #: (peer port, sequence, seconds) of each server dispatch.
        self.dispatches: List[tuple] = []

    def state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = ([], {})
            with self._lock:
                self._tables.append(st[1])
        return st

    def count(self, name: str, n: float = 1) -> None:
        table = self.state()[1]
        row = table.get(name)
        if row is None:
            row = table[name] = [0.0, 0.0, 0]
        row[2] += n

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None,
             failed: Optional[Callable] = None) -> Callable:
        """*fn* wrapped as a span of layer *name*.

        ``after(args, result)`` runs on success and ``failed(exc)`` on an
        exception, both with the span closed, to count work done.
        """
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack, table = tracer.state()
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(stack, table, frame, perf_counter() - t0)
                if failed is not None:
                    failed(exc)
                raise
            tracer._close(stack, table, frame, perf_counter() - t0)
            if after is not None:
                after(args, result)
            return result

        return shim

    @staticmethod
    def _close(stack, table, frame, duration: float) -> None:
        stack.pop()
        if stack:
            stack[-1][1] += duration
        row = table.get(frame[0])
        if row is None:
            row = table[frame[0]] = [0.0, 0.0, 0]
        row[0] += duration - frame[1]
        row[1] += duration
        row[2] += 1

    def parent(self) -> Optional[str]:
        stack = self.state()[0]
        return stack[-1][0] if stack else None

    def dump(self) -> dict:
        merged: Dict[str, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (self_s, total_s, count) in list(table.items()):
                row = merged.setdefault(name, [0.0, 0.0, 0])
                row[0] += self_s
                row[1] += total_s
                row[2] += count
        return {"layers": merged, "requests": list(self.requests),
                "dispatches": list(self.dispatches)}


TRACER = Tracer()


def _patch(owner, attr: str, name: str, **hooks) -> None:
    setattr(owner, attr, TRACER.span(name, getattr(owner, attr), **hooks))


# -- request-level spans (joined across processes) ---------------------------

def _traced_request(fn):
    """``Client.request`` as a ``client.request`` span keyed by
    (local port, sequence). The sequence advances even while tracing is
    off, so it stays aligned with the server's count."""
    inner = TRACER.span("client.request", fn)

    @functools.wraps(fn)
    def shim(self, payload):
        t0 = perf_counter()
        try:
            return inner(self, payload)
        finally:
            duration = perf_counter() - t0
            if self._sock is not None:
                self._trace_seq = getattr(self, "_trace_seq", 0) + 1
                if TRACER.enabled:
                    TRACER.requests.append((self._sock.getsockname()[1],
                                            self._trace_seq, duration))

    return shim


def _counted_dial(fn):
    """``Client._dial``: a new connection starts its sequence afresh."""

    @functools.wraps(fn)
    def shim(self):
        self._trace_seq = 0
        return fn(self)

    return shim


def _traced_dispatch(fn, counter: Optional[str] = None):
    """A server's ``dispatch`` as a ``server.dispatch`` span keyed by
    (peer port, sequence); the handshake frame is not a request.
    *counter* counts the traced requests under a name of its own."""
    inner = TRACER.span("server.dispatch", fn)

    @functools.wraps(fn)
    def shim(self, request):
        if request.get("op") == "hello":
            return fn(self, request)
        if counter is not None and TRACER.enabled:
            TRACER.count(counter)
        seq = getattr(self, "_trace_seq", 0) + 1
        self._trace_seq = seq
        t0 = perf_counter()
        try:
            return inner(self, request)
        finally:
            if TRACER.enabled:
                TRACER.dispatches.append(
                    (self.client_address[1], seq, perf_counter() - t0))

    return shim


class _TimedLock:
    """The commit lock, with the wait to acquire it recorded as a span."""

    __slots__ = ("_lock", "_acquire")

    def __init__(self, lock) -> None:
        self._lock = lock
        self._acquire = TRACER.span("database.commit_lock_wait",
                                    lock.acquire)

    def __enter__(self):
        return self._acquire()

    def __exit__(self, *exc) -> bool:
        self._lock.release()
        return False


# -- installation -------------------------------------------------------------

def install_client_shims() -> None:
    """The caller side: requests and result decoding."""
    from repro.client import Client
    from repro.server import protocol

    Client.request = _traced_request(Client.request)
    Client._dial = _counted_dial(Client._dial)
    _patch(protocol, "relation_from_wire", "client.decode")
    _patch(protocol, "tuple_from_wire", "client.decode")


def install_server_shims() -> None:
    """Every layer a server, shard worker or coordinator runs."""
    import repro.algebra.join as join_mod
    import repro.database.backends as backends
    import repro.database.database as database_mod
    import repro.database.prepared as prepared_mod
    import repro.faults as faults_mod
    import repro.server as server_mod
    import repro.sharding.coordinator as coord_mod
    import repro.storage.engine as engine
    from repro.core.errors import ConflictError
    from repro.core.tuples import HistoricalTuple
    from repro.database.concurrency import ConcurrencyManager
    from repro.database.result import QueryResult
    from repro.database.session import Transaction
    from repro.planner.plan import Plan
    from repro.planner.planner import Planner
    from repro.server import protocol
    from repro.sharding.decision import DecisionLog
    from repro.storage.wal import WriteAheadLog

    install_client_shims()

    # query: parse and compile, wherever the program looks them up
    for mod in (database_mod, prepared_mod, coord_mod):
        _patch(mod, "parse_hrql", "query.parse")
    for mod in (database_mod, prepared_mod, coord_mod):
        if hasattr(mod, "compile_query"):
            _patch(mod, "compile_query", "query.compile")

    # planner: plan, execute (the stream drains inside QueryResult)
    _patch(Planner, "plan", "planner.plan")

    def replanned(args, result):
        if TRACER.parent() == "planner.prepared_run":
            TRACER.count("planner.replans")

    _patch(Planner, "plan_normalized", "planner.plan", after=replanned)
    _patch(prepared_mod.PreparedQuery, "query", "planner.prepared_run")
    _patch(Plan, "execute_stream", "planner.execute")

    def rows_out(args, result):
        result_obj = args[0]
        if result_obj.kind == "relation":
            TRACER.count("planner.rows_out", len(result_obj.value))

    _patch(QueryResult, "__init__", "planner.execute", after=rows_out)

    # core and algebra
    _patch(HistoricalTuple, "restrict", "core.restrict")
    _patch(HistoricalTuple, "__init__", "core.tuple_init")
    _patch(join_mod, "natural_join", "algebra.join")
    _patch(join_mod, "theta_join", "algebra.join")

    # storage: record decodes (full and header-first) and attribute blocks
    def record_decoded(args, result):
        TRACER.count("storage.records_decoded")

    def header_decoded(args, result):
        if TRACER.parent() != "storage.decode":
            TRACER.count("storage.records_decoded")

    _patch(engine, "decode_tuple", "storage.decode", after=record_decoded)
    _patch(engine, "decode_tuple_header", "storage.decode",
           after=header_decoded)
    _patch(engine, "_decode_attr_block", "storage.decode")

    # database: write-set build, lock wait, validate, apply, constraints,
    # publish
    for attr in ("commit", "insert", "update", "terminate", "reincarnate"):
        _patch(Transaction, attr, "database.txn_build")
    _patch(database_mod.HistoricalDatabase, "_autocommit",
           "database.txn_build")
    original_write = ConcurrencyManager.write
    ConcurrencyManager.write = lambda self: _TimedLock(original_write(self))

    def conflicted(exc):
        if isinstance(exc, ConflictError):
            TRACER.count("database.conflicts")

    _patch(ConcurrencyManager, "validate", "database.validate",
           failed=conflicted)
    for backend in (backends.MemoryBackend, backends.DiskBackend):
        _patch(backend, "apply", "database.apply")
        _patch(backend, "install", "database.apply")
    _patch(database_mod.HistoricalDatabase, "_check_constraints",
           "database.constraint")
    _patch(database_mod.HistoricalDatabase, "_committed", "database.publish")

    # wal: append, group sync, fsyncs and bytes written
    _patch(WriteAheadLog, "append", "wal.append")
    _patch(WriteAheadLog, "sync_to", "wal.sync")
    fault_fsync, fault_write = faults_mod.fault_fsync, faults_mod.fault_write

    def counted_fsync(fileno, target):
        if TRACER.enabled and target == "wal":
            TRACER.count("wal.fsyncs")
        return fault_fsync(fileno, target)

    def counted_write(fh, data, target):
        if TRACER.enabled and target == "wal":
            TRACER.count("wal.bytes", len(data))
        return fault_write(fh, data, target)

    faults_mod.fault_fsync = counted_fsync
    faults_mod.fault_write = counted_write

    # server: dispatch and result encoding
    server_mod._Connection.dispatch = _traced_dispatch(
        server_mod._Connection.dispatch)
    _patch(protocol, "relation_to_wire", "server.encode")

    # sharding: route, prepare, decision, gather, shard fan-out
    coord_mod._CoordConnection.dispatch = _traced_dispatch(
        coord_mod._CoordConnection.dispatch, counter="sharding.statements")
    _patch(coord_mod, "route_statement", "sharding.route")
    _patch(Transaction, "prepare", "sharding.prepare")
    _patch(DecisionLog, "record", "sharding.decision")
    # Scatter-gather: per-tuple statements fan out and are unioned;
    # the rest are fetched and planned coordinator-side.
    _patch(coord_mod._CoordConnection, "_fanout", "sharding.gather")
    _patch(coord_mod._CoordConnection, "_gather", "sharding.gather")

    def shard_request(args, result):
        TRACER.count("sharding.shard_requests")

    _patch(coord_mod._ShardLink, "request", "sharding.link",
           after=shard_request)


def serve_signals(path: str) -> None:
    """SIGUSR1 turns spans on; SIGUSR2 turns them off and writes *path*."""

    def on(signum, frame):
        TRACER.enabled = True
        with open(path + ".on", "w"):
            pass

    def dump(signum, frame):
        TRACER.enabled = False
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(TRACER.dump(), fh)
        os.replace(tmp, path)

    signal.signal(signal.SIGUSR1, on)
    signal.signal(signal.SIGUSR2, dump)


# -- per-layer metrics ---------------------------------------------------------

#: Self-time metrics: metric name -> span layer.
SELF_TIME = {
    "query.parse_ms": "query.parse",
    "query.compile_ms": "query.compile",
    "planner.plan_ms": "planner.plan",
    "planner.execute_ms": "planner.execute",
    "core.restrict_ms": "core.restrict",
    "algebra.join_ms": "algebra.join",
    "storage.decode_ms": "storage.decode",
    "database.txn_build_ms": "database.txn_build",
    "database.validate_ms": "database.validate",
    "database.apply_ms": "database.apply",
    "database.constraint_ms": "database.constraint",
    "database.publish_ms": "database.publish",
    "database.commit_lock_wait_ms": "database.commit_lock_wait",
    "wal.append_ms": "wal.append",
    "wal.sync_ms": "wal.sync",
    "server.dispatch_ms": "server.dispatch",
    "server.encode_ms": "server.encode",
    "client.decode_ms": "client.decode",
    "sharding.route_ms": "sharding.route",
    "sharding.prepare_ms": "sharding.prepare",
    "sharding.decision_ms": "sharding.decision",
    "sharding.gather_ms": "sharding.gather",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Units of the metrics that are not self times (those are ms/op).
UNITS = {
    "planner.rows_out": "rows/op",
    "planner.replan_ratio": "ratio",
    "core.tuple_init_calls": "count/op",
    "storage.decode_calls": "count/op",
    "storage.decodes_per_row": "ratio",
    "database.conflict_ratio": "ratio",
    "wal.fsyncs": "count/op",
    "wal.commits_per_fsync": "ratio",
    "wal.bytes_per_commit": "bytes",
    "sharding.shards_per_stmt": "ratio",
}


def layer_metrics(dumps: List[dict], ops: int) -> Dict[str, tuple]:
    """Per-layer ``(value, unit)`` from every process's dump.

    Times are self time in ms per completed op; counts are per op;
    ratios carry their own base (named in the metric).
    """
    layers: Dict[str, list] = {}
    requests, dispatches = [], {}
    for dump in dumps:
        for name, row in dump["layers"].items():
            acc = layers.setdefault(name, [0.0, 0.0, 0])
            for i in range(3):
                acc[i] += row[i]
        requests.extend(dump["requests"])
        for port, seq, seconds in dump["dispatches"]:
            dispatches[(port, seq)] = seconds

    def self_ms(layer):
        return layers.get(layer, [0.0, 0.0, 0])[0] * 1000.0

    def count(layer):
        return layers.get(layer, [0.0, 0.0, 0])[2]

    out = {metric: self_ms(layer) / ops for metric, layer in SELF_TIME.items()}
    socket_s = sum(seconds - dispatches[(port, seq)]
                   for port, seq, seconds in requests
                   if (port, seq) in dispatches)
    out["client.socket_ms"] = socket_s * 1000.0 / ops
    rows = count("planner.rows_out")
    decoded = count("storage.records_decoded")
    appends = count("wal.append")
    fsyncs = count("wal.fsyncs")
    out.update({
        "planner.rows_out": rows / ops,
        "planner.replan_ratio": _ratio(count("planner.replans"),
                                       count("planner.prepared_run")),
        "core.tuple_init_calls": count("core.tuple_init") / ops,
        "storage.decode_calls": decoded / ops,
        "storage.decodes_per_row": _ratio(decoded, rows),
        "database.conflict_ratio": _ratio(count("database.conflicts"),
                                          count("database.validate")),
        "wal.fsyncs": fsyncs / ops,
        "wal.commits_per_fsync": _ratio(appends, fsyncs),
        "wal.bytes_per_commit": _ratio(count("wal.bytes"), appends),
        "sharding.shards_per_stmt": _ratio(count("sharding.shard_requests"),
                                           count("sharding.statements")),
    })
    return {name: (value, UNITS.get(name, "ms/op"))
            for name, value in out.items()}
