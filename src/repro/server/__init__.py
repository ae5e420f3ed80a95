"""The network serving layer: sessions, wire protocol, subscriptions.

This package turns the in-process :class:`repro.api.Database` into a
served system (ROADMAP item 1):

* :mod:`repro.server.protocol` — the length-prefixed JSON wire protocol
  (framing, request/reply/error/push message shapes, typed errors);
* :mod:`repro.server.server` — the asyncio :class:`ViewServer`: many
  concurrent client sessions over one database, all mutations serialized
  through a single-writer apply loop, push-based view subscriptions
  (one fan-out point per view, each refresh encoded once and spliced
  behind every subscriber's own head) with per-subscriber bounds and an
  explicit backpressure policy (coalesce-to-latest or
  disconnect-with-gap), a plain-HTTP ``/metrics``
  Prometheus scrape endpoint, and graceful shutdown that cuts a final
  checkpoint on durable databases;
* :mod:`repro.server.client` — the blocking :class:`ReproClient` used by
  tests, examples and scripts (threads may share one client; requests
  are matched to replies by message id, pushes land on per-subscription
  queues).

The serving layer is resilient end to end (protocol version 2):
reconnecting clients (``ReproClient(..., reconnect=True)``) retry
mutations safely under idempotency tokens the server deduplicates (the
ledger survives durable restarts inside WAL records and checkpoints),
subscriptions resume across disconnects via ``from_sequence`` backlog
replay or explicit reset frames, and the server protects itself with
per-request deadlines, idle-session reaping and max-sessions/
max-inflight admission control that sheds with typed ``overloaded``
errors.  ``tests/netfaults.py`` holds the ChaosProxy network
fault-injection harness that proves all of it.

``python -m repro.server`` starts a standalone server (see
:mod:`repro.server.__main__` for the flags).
"""

from .client import ClientSubscription, ConnectionClosed, ReproClient, \
    ServerError
from .protocol import ProtocolError
from .server import DeadlineExceeded, Overloaded, ServerHandle, \
    ViewServer, start_in_thread

__all__ = ["ClientSubscription", "ConnectionClosed", "DeadlineExceeded",
           "Overloaded", "ProtocolError", "ReproClient", "ServerError",
           "ServerHandle", "ViewServer", "start_in_thread"]
