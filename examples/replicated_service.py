"""Replication: tenant replicas behind Service, failover, a spool joiner.

Part 1 uses the front door. A durable multi-tenant `Service` ingests a
dynamic workload in bursts while two tenant-filtered read replicas tail
the shared log. It shows explicit lag before/after each `sync()`,
membership equality after catch-up, and shared-log compaction followed
by a late replica that bootstraps from the tenant's checkpoint.

Part 2 uses the `repro.replica` primitives for what the front door does
not do. A durable sqlite follower fed by a `LogShipper` is promoted to
primary (`ReadReplica.promote()`) and matches the uninterrupted run of
part 1. Then, after the new primary's log is compacted, a brand-new
follower joins over a mailbox spool from a shipped snapshot, with no
access to the primary's state directories (the in-process form of
`python -m repro.replica.follower`):

    python examples/replicated_service.py
"""

import pathlib
import tempfile

from repro.clustering.objectives import DBIndexObjective
from repro.core import DynamicC
from repro.data.generators import generate_access
from repro.data.workload import OperationMix, build_workload
from repro.replica import InProcessTransport, LogShipper, MailboxTransport, ReadReplica
from repro.serve import Service
from repro.stream import ClusteringService, StreamConfig

dataset = generate_access(n_profiles=8, n_records=500, seed=3)
workload = build_workload(
    dataset,
    initial_count=150,
    n_snapshots=8,
    mixes=OperationMix(add=0.14, remove=0.03, update=0.04),
    seed=2,
)
events = workload.event_stream()
print(f"workload: {len(events)} events")


def factory():
    return DynamicC(dataset.graph(), DBIndexObjective(), seed=0)


#: Round-cut parameters every node must share, or replayed rounds diverge.
CUT = dict(n_shards=2, batch_max_ops=48, train_rounds=2)
state_dir = pathlib.Path(tempfile.mkdtemp(prefix="repro-replica-"))

# ---------------------------------------------------------------------------
# 1. The front door: one tenant, two in-memory replicas of its slice.
# ---------------------------------------------------------------------------
service = Service.open(engine_factory=factory, root_dir=state_dir / "serve", **CUT)
tenant = service.tenant("access")
replicas = [tenant.add_replica(name=f"replica-{index}") for index in range(2)]

burst = len(events) // 4
for start in range(0, len(events), burst):
    tenant.ingest(events[start : start + burst])
    # Two views of lag: the shipper knows how far each follower's cursor
    # trails the log; lag() is each replica's own (last-heard) view.
    behind = [s["behind"] for s in service.stats()["shipping"]]
    service.sync()
    after = [(r.name, r.lag()["seq_delta"]) for r in replicas]
    print(f"burst at {start:4d}: followers behind by {behind} ops -> after sync {after}")

tenant.flush()
service.sync()
reference = tenant.partition()
assert all(replica.partition() == reference for replica in replicas)
# Cluster ids are replica-relative: resolve id -> cluster -> members
# against one replica.
some_id = min(max(reference, key=len))
reader = replicas[0]
peers = reader.members(reader.cluster_of(some_id))
print(
    f"caught up: {tenant.num_objects()} objects on all nodes; object {some_id} "
    f"has {len(peers)} cluster peers (served by {reader.name})"
)

# Compaction truncates the shared log below every tenant's oldest
# checkpoint and every replica cursor; a replica attached afterwards
# bootstraps from the tenant's checkpoint and is shipped only the suffix.
tenant.checkpoint()
report = service.compact()
print(
    f"compaction: shared log truncated through seq {report['truncated_through']}, "
    f"{report['reclaimed_bytes']} bytes reclaimed"
)
late = tenant.add_replica(name="late")
seeded_at = late.received_seq
service.sync()
assert late.partition() == reference
print(f"late replica: seeded from the checkpoint at seq {seeded_at}, caught up")
service.close()

# ---------------------------------------------------------------------------
# 2. Failover with the primitives: a durable follower becomes primary.
# ---------------------------------------------------------------------------
primary = ClusteringService(
    factory,
    StreamConfig(
        **CUT,
        oplog_path=state_dir / "primary" / "oplog.jsonl",
        checkpoint_dir=state_dir / "primary" / "checkpoints",
    ),
)
shipper = LogShipper(primary.oplog)
transport = InProcessTransport()
shipper.attach(transport, from_seq=0)
heir = ReadReplica(  # durable follower on sqlite storage: the promotion heir
    factory,
    StreamConfig(
        **CUT,
        oplog_path=state_dir / "heir" / "oplog.sqlite",
        checkpoint_dir=state_dir / "heir" / "checkpoints",
        log_backend="sqlite",
        checkpoint_backend="sqlite",
    ),
    transport,
    name="heir",
)
cut = (len(events) * 2) // 3  # deliberately mid-batch
primary.ingest(events[:cut])
shipper.ship()
heir.poll()
primary.close()  # the old primary goes away
promoted = heir.promote()  # recover path over the heir's own log
print(f"failover: new primary at seq {promoted.oplog.last_seq} (sqlite log)")
promoted.ingest(events[cut:])
promoted.flush()
assert promoted.partition() == reference
print(f"post-failover: {promoted.num_objects()} objects, equal to the uninterrupted run")

# ---------------------------------------------------------------------------
# 3. A late joiner over a spool: truncate the log through the newest
#    snapshot, and have a brand-new follower join anyway. The shipper
#    heals the missing prefix by shipping the checkpoint itself, so the
#    follower needs only the spool directory.
# ---------------------------------------------------------------------------
promoted.checkpoint()
report = promoted.oplog.truncate_through(promoted.checkpoints.latest_seq())
print(
    f"compaction: log truncated through seq {report['truncated_through']}, "
    f"{report['reclaimed_bytes']} bytes reclaimed, {report['log_bytes']} left"
)
spool = state_dir / "spool"
spool_shipper = LogShipper(promoted.oplog, snapshots=promoted.checkpoints.load_latest)
spool_shipper.attach(MailboxTransport(spool), from_seq=0)  # knows nothing yet
spool_shipper.ship()  # gap at seq 0 -> snapshot + suffix into the spool
joiner = ReadReplica(
    factory,
    StreamConfig(  # the joiner's own two directories, nothing shared
        **CUT,
        oplog_path=state_dir / "joiner" / "oplog.jsonl",
        checkpoint_dir=state_dir / "joiner" / "checkpoints",
    ),
    MailboxTransport(spool),
    name="late-joiner",
)
joiner.poll()
assert joiner.partition() == promoted.partition()
print(
    f"late joiner: bootstrapped from {joiner.snapshots_applied} shipped "
    f"snapshot to seq {joiner.received_seq}, lag {joiner.lag()['seq_delta']} "
    "— partition equal to the primary, via the spool alone"
)
joiner.close()
promoted.close()
