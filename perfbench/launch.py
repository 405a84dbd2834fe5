"""Start a server module the way ``python -m`` would, with benchmark hooks.

Usage::

    python perfbench/launch.py [--trace-file F] [--constraints-of NAMES] \\
        -- server PATH [server options...]
    python perfbench/launch.py [...] -- sharding worker|coordinator ...

The arguments after ``--`` are exactly those of ``python -m
repro.server`` / ``python -m repro.sharding``; the launcher calls that
module's ``main`` with them. Before it does, it can

* install the tracing shims (``--trace-file``): spans stay off until
  SIGUSR1 and are written to the file on SIGUSR2 (see :mod:`tracing`);
* register the live integrity constraints of the named foundry
  scenarios (``--constraints-of hr_rehires,iot_fleet``) on the database
  the module opens. Constraints are not persisted in a database
  directory, so a served workload that needs them live registers them
  here, on every open.
"""

from __future__ import annotations

import argparse
import os
import sys


def _with_constraints(scenario_names):
    """The database class, registering the scenarios' constraints on open."""
    from repro.database import HistoricalDatabase
    from repro.workloads import Knobs, get_scenario

    class ConstrainedDatabase(HistoricalDatabase):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            for name in scenario_names:
                for constraint in get_scenario(name).constraints(Knobs()):
                    self.add_constraint(constraint)

    return ConstrainedDatabase


def main() -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--trace-file")
    parser.add_argument("--constraints-of", default="")
    parser.add_argument("module", choices=("server", "sharding"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    argv = sys.argv[1:]
    if "--" in argv:
        split = argv.index("--")
        argv = argv[:split] + argv[split + 1:]
    opts = parser.parse_args(argv)

    if opts.module == "server":
        import repro.server.__main__ as entry
    else:
        import repro.sharding.__main__ as entry
    if opts.constraints_of:
        constrained = _with_constraints(opts.constraints_of.split(","))
        entry.HistoricalDatabase = constrained
        import repro.sharding.worker as worker_mod
        worker_mod.HistoricalDatabase = constrained
    if opts.trace_file:
        import tracing
        tracing.install_server_shims()
        tracing.serve_signals(opts.trace_file)
    return entry.main(opts.args)


if __name__ == "__main__":
    sys.exit(main())
