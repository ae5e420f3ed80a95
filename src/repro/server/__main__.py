"""``python -m repro.server`` — a standalone view server.

Example::

    python -m repro.server --port 7654 --http-port 7655 \\
        --durable /var/lib/repro \\
        --load bib.xml=./bib.xml \\
        --view 'titles=FOR $b IN document("bib.xml")/bib/book ' \\
               'RETURN <t>{$b/title}</t>'

Runs until SIGINT/SIGTERM, then shuts down gracefully (sessions
closed, apply loop drained, final checkpoint on durable databases).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys

from ..api import Database
from .server import ViewServer


def _parse_pair(option: str, value: str) -> tuple[str, str]:
    name, sep, rest = value.partition("=")
    if not sep or not name or not rest:
        raise SystemExit(f"--{option} wants NAME=VALUE, got {value!r}")
    return name, rest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a repro database over the wire protocol.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7654,
                        help="wire-protocol port (0 picks a free one)")
    parser.add_argument("--http-port", type=int, default=None,
                        help="plain-HTTP port for /metrics and /healthz")
    parser.add_argument("--durable", metavar="DIR", default=None,
                        help="open (or recover) a durable database here")
    parser.add_argument("--fsync", choices=("always", "batch", "off"),
                        default="batch")
    parser.add_argument("--load", action="append", default=[],
                        metavar="NAME=PATH",
                        help="register a source document (repeatable)")
    parser.add_argument("--view", action="append", default=[],
                        metavar="NAME=XQUERY",
                        help="create a view at startup (repeatable)")
    parser.add_argument("--policy", default="immediate",
                        help="maintenance policy for --view views "
                             "(immediate, deferred, or an integer K)")
    parser.add_argument("--max-sessions", type=int, default=4096,
                        help="admission control: concurrent sessions "
                             "before new connections are shed")
    parser.add_argument("--max-inflight", type=int, default=1024,
                        help="admission control: queued apply-loop jobs "
                             "before requests are shed as overloaded")
    parser.add_argument("--request-timeout", type=float, default=30.0,
                        help="server-side deadline per request in "
                             "seconds (0 disables)")
    parser.add_argument("--idle-timeout", type=float, default=None,
                        help="reap sessions idle longer than this many "
                             "seconds (subscribers are exempt)")
    parser.add_argument("--backlog", type=int, default=256,
                        help="per-view delta backlog for subscription "
                             "resume after reconnect")
    return parser


async def serve(args) -> None:
    db = Database(durable_path=args.durable, fsync=args.fsync) \
        if args.durable else Database()
    for name, path in (_parse_pair("load", item) for item in args.load):
        db.load(name, path)
    policy = int(args.policy) if args.policy.isdigit() else args.policy
    for name, xquery in (_parse_pair("view", item)
                         for item in args.view):
        if name not in db.views():
            db.create_view(name, xquery, policy)
    server = ViewServer(db, host=args.host, port=args.port,
                        http_port=args.http_port, own_db=True,
                        max_sessions=args.max_sessions,
                        max_inflight=args.max_inflight,
                        request_timeout=args.request_timeout or None,
                        idle_timeout=args.idle_timeout,
                        backlog=args.backlog)
    await server.start()
    print(f"repro view server on {server.host}:{server.port}"
          + (f" (http {server.http_port})" if server.http_port else ""),
          flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_event_loop()
    for signame in ("SIGINT", "SIGTERM"):
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(getattr(signal, signame), stop.set)
    try:
        await stop.wait()
    finally:
        print("shutting down...", flush=True)
        await server.stop()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        asyncio.run(serve(args))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
