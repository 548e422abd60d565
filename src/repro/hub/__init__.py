"""ModelHub sharing service: publish, search, and pull DLV repositories.

The paper hosts DLV repositories in an online service playing the role
GitHub plays for code (Sec. III-C).  Because a DLV repository is
standalone (catalog + chunk store), hosting it whole is exactly the
paper's design.  The hub is three layers:

* **Sources** answer one read protocol — ``search``, ``revisions``,
  ``resolve_revision``, ``manifest``, ``files``, ``fetch_file``.
  :class:`~repro.hub.server.HubServer` is the hub *directory* (the
  storage, the only writer, and the only definition of which revisions
  are visible); :class:`~repro.hub.httpd.RemoteHub` is the same six
  calls over HTTP against a :class:`~repro.hub.httpd.HubHTTPServer`
  (``dlv hub-serve``: read-only, ``/metrics``, ``traceparent`` adoption).
* **One engine**, :class:`~repro.hub.fleet.FleetClient`, reads and pulls
  over 1..N sources: round-robin, per-peer circuit breakers, failover,
  the resumable per-file transfer of :mod:`repro.hub.transfer`,
  whole-tree verification, atomic install.
  :class:`~repro.hub.replication.Replicator` keeps follower hubs in sync
  through the same engine.
* **One facade**, :class:`~repro.hub.client.HubClient`, turns a location
  (directory, URL, several URLs) into sources, and adds ``publish``.
"""

from repro.hub.client import HubClient
from repro.hub.fleet import CircuitBreaker, FleetClient, NoHealthyPeer
from repro.hub.httpd import (
    HubHTTPServer,
    RemoteHub,
    RemoteHubError,
    RemoteHubUnavailable,
)
from repro.hub.replication import HubFleet, Replicator
from repro.hub.server import HubRecord, HubServer

__all__ = [
    "CircuitBreaker",
    "FleetClient",
    "HubClient",
    "HubFleet",
    "HubHTTPServer",
    "HubRecord",
    "HubServer",
    "NoHealthyPeer",
    "RemoteHub",
    "RemoteHubError",
    "RemoteHubUnavailable",
    "Replicator",
]
