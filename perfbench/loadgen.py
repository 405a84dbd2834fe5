"""The closed-loop load generator: one thread per connection, no think time.

Each connection thread sends its next operation as soon as the last one
is acknowledged and records ``(class, seconds, ok, end)`` per operation,
``end`` being the ``perf_counter`` time the operation completed. An
operation that raises counts as failed (and as attempted); the thread
goes on with its next operation.
"""

from __future__ import annotations

import random
import threading
import time
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from common import BenchError

#: Generous bound on joining a connection thread past its budget.
JOIN_GRACE = 60.0

Sample = Tuple[str, float, bool, float]


class Connection:
    """One connection's samples and the errors it saw."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self.errors: List[str] = []

    def record(self, cls: str, t0: float, ok: bool) -> None:
        end = time.perf_counter()
        self.samples.append((cls, end - t0, ok, end))

    def timed(self, cls: str, action: Callable[[], object]):
        """Run *action*, record its latency under *cls*; None on failure."""
        t0 = time.perf_counter()
        try:
            result = action()
        except Exception as exc:  # counted as a failed operation
            self.record(cls, t0, False)
            if len(self.errors) < 5:
                self.errors.append(f"{cls}: {exc!r}")
            return None
        self.record(cls, t0, True)
        return result


def class_stream(r: random.Random,
                 mix: Sequence[Tuple[object, int]]) -> Iterator[object]:
    """Operation classes in blocks that hold each class exactly its count.

    *mix* is ``(class, count)`` pairs; each block of ``sum(counts)``
    operations is shuffled with *r*, so two seeds differ in the order of
    the work but not in how much of each kind there is.
    """
    pattern = [cls for cls, count in mix for _ in range(count)]
    while True:
        r.shuffle(pattern)
        yield from pattern


def persona_mix(scripts: Iterable[Sequence[object]],
                classify: Callable[[object], Optional[str]]
                ) -> Tuple[Tuple[str, int], ...]:
    """``(class, count)`` of the operations of foundry persona scripts.

    ``classify(op)`` names the workload class an operation of a script
    maps to, or None for one the workload does not send. A workload
    that takes its mix from here sends its classes in the proportions
    the foundry's personas do.
    """
    counts: Dict[str, int] = {}
    for script in scripts:
        for op in script:
            cls = classify(op)
            if cls is not None:
                counts[cls] = counts.get(cls, 0) + 1
    return tuple(sorted(counts.items()))


def run_connections(bodies: Sequence[Callable[[Connection], None]],
                    budget_s: float) -> Tuple[List[Connection], float]:
    """Run each ``body(connection)`` on its own thread, started together.

    Returns the connections and the wall time from the common start to
    the last thread's end.
    """
    conns = [Connection() for _ in bodies]
    crashes: List[BaseException] = []
    barrier = threading.Barrier(len(bodies) + 1)

    def worker(body, conn):
        try:
            barrier.wait()
            body(conn)
        except BaseException as exc:
            crashes.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(b, c), daemon=True)
               for b, c in zip(bodies, conns)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join(budget_s + JOIN_GRACE)
        if thread.is_alive():
            raise BenchError("a load-generator connection hung")
    elapsed = time.perf_counter() - started
    if crashes:
        raise crashes[0]
    return conns, elapsed
