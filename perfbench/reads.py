"""Seeded read bindings and their reference answers.

A read workload draws every operation from a finite, seeded pool of
(statement, binding) pairs. Before any server starts, each pair is
evaluated by the naive algebra — ``compile_query(...).evaluate(env)``
over in-memory relations built from the same generated rows — and its
result digest kept. During the run a connection keeps the first answer
it gets for each pair, and every :data:`RESAMPLE`-th answer after that;
after the run, every kept answer must match its reference digest.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Mapping, Tuple

from common import check

from repro.core.relation import HistoricalRelation
from repro.query.compiler import compile_query
from repro.query.parser import parse as parse_hrql
from repro.workloads import result_digest

#: Besides the first answer per binding, keep every N-th answer.
RESAMPLE = 16

Binding = Tuple[Tuple[str, object], ...]
Key = Tuple[str, Binding]


def digest(value) -> str:
    """The foundry's result digest of a relation or lifespan value."""
    return result_digest(SimpleNamespace(value=value))


def memory_env(schemes, rows) -> Dict[str, HistoricalRelation]:
    """In-memory relations from generated ``(lifespan, values)`` rows."""
    return {name: HistoricalRelation.from_rows(schemes[name], rows[name])
            for name in schemes}


class ReadChecker:
    """Reference digests for a pool of reads, and the answers to check."""

    def __init__(self, statements: Mapping[str, str],
                 pool: Mapping[str, List[Binding]],
                 env: Mapping[str, HistoricalRelation]):
        self.statements = dict(statements)
        self.pool = {cls: list(bindings) for cls, bindings in pool.items()}
        self.reference: Dict[Key, str] = {}
        for cls, bindings in self.pool.items():
            statement = parse_hrql(self.statements[cls])
            for binding in bindings:
                self.reference[(cls, binding)] = digest(
                    compile_query(statement, dict(binding)).evaluate(env))

    def corrupt(self) -> None:
        """Spoil the reference of the hottest point binding (self-test)."""
        key = ("point", self.pool["point"][0])
        self.reference[key] = "0" * 64

    def keeper(self):
        """A per-connection recorder: ``keep(cls, binding, result)``."""
        seen: Dict[Key, int] = {}
        kept: List[Tuple[Key, object]] = []

        def keep(cls: str, binding: Binding, result) -> None:
            key = (cls, binding)
            n = seen.get(key, 0)
            seen[key] = n + 1
            if n % RESAMPLE == 0:
                kept.append((key, result))

        return keep, kept

    def verify(self, kept: List[Tuple[Key, object]]) -> int:
        """Check every kept answer; returns how many were checked."""
        for key, result in kept:
            check(result_digest(result) == self.reference[key],
                  f"answer differs from the naive evaluation for {key}")
        return len(kept)
