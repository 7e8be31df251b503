"""The server child: builds the engine, serves it, obeys the control pipe.

Started by :class:`engine.ServerChild` as
``launcher.py <workload> <seed> <scale>``.  It regenerates the workload's
tables from those three values (the same pure function the generator
uses, so no rows cross the pipe), then reads one JSON command per line on
stdin and answers each with one JSON line on stdout.  End of input is a
command to stop.  Nothing else may be written to stdout.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time

_started = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import engine  # noqa: E402  (after the path is set)
import spans  # noqa: E402
import workloads  # noqa: E402


class Child:
    def __init__(
        self, workload: str, seed: int, scale: float, import_seconds: float
    ) -> None:
        self.import_seconds = import_seconds
        self.tables = workloads.tables(workload, seed, scale)
        self.db_kwargs, self.serve_kwargs = workloads.engine_kwargs(workload, scale)
        self.db = None
        self.server = None
        self.tracer = None
        # The generated rows are the benchmark's, not the engine's: out of
        # the collector's sight (see ``run.Run.__init__``).
        gc.collect()
        gc.freeze()

    # -- commands ------------------------------------------------------------

    def hello(self):
        return {"import_seconds": self.import_seconds}

    def setup(self):
        """Build the engine and start serving; the generator stops its
        set-up clock once a fresh connection has answered ``PING``."""
        self.db = engine.build_engine(self.tables, self.db_kwargs)
        self.server = self.db.serve(**self.serve_kwargs)
        host, port = self.server.address
        return {"host": host, "port": port}

    def teardown(self):
        if self.server is not None:
            self.server.stop()
        self.server = self.db = None
        gc.collect()  # the next set-up should not pay for this one's garbage
        return {}

    def cpu(self):
        return {"cpu": time.process_time()}

    def settle(self):
        """Between passes, off the clock: see ``run.Run.timed_pass``."""
        gc.collect()
        return {}

    def stats(self):
        """Every existing ``*_stats()`` surface, in one reply."""
        manager = self.server.manager
        out = manager.manager_stats()
        out["wire"] = self.server.wire_stats()
        out["storage"] = self.db.storage_stats()
        out["counters"] = self.db.counters.snapshot().as_dict()
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return out

    def balances(self):
        return {"balances": self.server.manager.bank.balances()}

    def crash(self):
        return {"report": self.server.crash()}

    def recover(self):
        started = time.perf_counter()
        report = self.server.recover()
        seconds = time.perf_counter() - started
        report.pop("commit_order", None)  # one entry per commit ever made
        return {"report": report, "recover_seconds": seconds}

    def trace_on(self):
        self.tracer = spans.Tracer()
        spans.install(self.tracer, server_side=True)
        return {}

    def trace_dump(self, raw_path):
        self.tracer.uninstall()
        self.tracer.write_raw(raw_path)
        return self.tracer.dump()


def main(argv) -> int:
    child = Child(
        argv[1], int(argv[2]), float(argv[3]), time.perf_counter() - _started
    )
    for line in sys.stdin:
        message = json.loads(line)
        cmd = message.pop("cmd")
        if cmd == "stop":
            child.teardown()
            print("{}", flush=True)
            return 0
        try:
            reply = getattr(child, cmd)(**message)
        except Exception as exc:  # the generator must hear about it
            reply = {"error": "%s: %s" % (type(exc).__name__, exc)}
        print(json.dumps(reply), flush=True)
    child.teardown()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
