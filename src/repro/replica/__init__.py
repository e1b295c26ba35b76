"""repro.replica — oplog shipping, read replicas, and failover.

Builds on :mod:`repro.stream`'s log-first design: the operation log is
the only hard state, so *anything that can read the log can serve
reads*. This package turns that property into a primary/replica system:

* :mod:`repro.replica.segment` — the shipping artifacts:
  :class:`LogSegment` (contiguous, self-validating log slice) and
  :class:`SnapshotArtifact` (a whole checkpoint over the wire), plus
  :class:`ReplicationGap`;
* :mod:`repro.replica.transport` — artifact channels: in-process queue
  and filesystem mailbox (cross-process, no network stack, torn files
  quarantined);
* :mod:`repro.replica.shipper` — :class:`LogShipper`, per-follower
  cursors over the primary's committed log suffix; compaction gaps
  healed by shipping the newest snapshot, :meth:`~LogShipper.resync`
  for follower-side gaps;
* :mod:`repro.replica.replica` — :class:`ReadReplica`: transport-only
  bootstrap/re-sync from shipped snapshots, gap-refusing tailing,
  explicit :meth:`~ReadReplica.lag`, and :meth:`~ReadReplica.promote`
  failover;
* :mod:`repro.replica.follower` — :class:`FollowerDaemon` /
  ``python -m repro.replica.follower``: a standalone mailbox follower
  on a poll timer, serving its own endpoints, with readiness gated on
  bootstrap.

These are primitives. In-process replication is wired through the one
front door, :class:`repro.serve.Service` (``tenant(...).add_replica()``,
``sync()``, ``compact()``); failover is :meth:`ReadReplica.promote` and
a cross-process follower is :class:`LogShipper` +
:class:`MailboxTransport` + ``python -m repro.replica.follower``.
"""

from .replica import ReadReplica
from .segment import LogSegment, ReplicationGap, SnapshotArtifact
from .shipper import LogShipper
from .transport import InProcessTransport, MailboxTransport, Transport


def __getattr__(name):
    # Lazy so `python -m repro.replica.follower` doesn't import the
    # module twice (package import + runpy execution would warn).
    if name == "FollowerDaemon":
        from .follower import FollowerDaemon

        return FollowerDaemon
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FollowerDaemon",
    "InProcessTransport",
    "LogSegment",
    "LogShipper",
    "MailboxTransport",
    "ReadReplica",
    "ReplicationGap",
    "SnapshotArtifact",
    "Transport",
]
