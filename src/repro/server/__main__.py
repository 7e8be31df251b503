"""Standalone server entry point.

Usage::

    python -m repro.server [--host H] [--port P] [--accounts N]
                           [--balance B]

Starts the statement server on a demo engine (the banking record
store plus an empty relational catalog) and serves until interrupted.
Port 0 picks a free port; the bound address is printed either way.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.server.net import DatabaseServer


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve the statement/result protocol over TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--accounts", type=int, default=64)
    parser.add_argument("--balance", type=int, default=100)
    args = parser.parse_args(argv)

    server = DatabaseServer(
        host=args.host,
        port=args.port,
        n_accounts=args.accounts,
        initial_balance=args.balance,
    )
    host, port = server.start_in_thread()
    print("serving on %s:%d (%d accounts)" % (host, port, args.accounts))
    sys.stdout.flush()
    try:
        server._thread.join()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
