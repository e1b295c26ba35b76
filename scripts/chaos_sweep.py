#!/usr/bin/env python
"""CI chaos sweep: drive the fault matrix until the time budget runs out.

Runs every cell of the fault matrix — (boundary × fault kind) scenario
pairs spanning crash sweeps, injected I/O errors, torn files and the
full failover drill — then, with whatever budget remains, keeps
deepening the sampled sweeps (more crash points, more tear seeds) so a
longer budget buys more coverage rather than idle time. Every schedule
is seeded: a red run reproduces locally with the seed printed in the
report.

Writes ``benchmarks/results/fault_matrix.json`` (untracked; CI uploads
it as an artefact): one record per cell with the fault injected, the
rounds it ran, cases executed and pass/fail counts summed over those
rounds, and the first failure's detail. Exits non-zero if any cell
failed (or crashed outside its expectations).

Usage: python scripts/chaos_sweep.py [--budget-s 120] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.clustering.objectives import CorrelationObjective  # noqa: E402
from repro.core import DynamicC  # noqa: E402
from repro.errors import DegradedError  # noqa: E402
from repro.faults import (  # noqa: E402
    ErrorInjector,
    FaultInjector,
    FaultSpec,
    InjectedCrash,
    RetryPolicy,
    eio,
    enospc,
    sample_crash_points,
    tear_file,
)
from repro.replica import LogShipper, MailboxTransport, ReadReplica  # noqa: E402
from repro.serve import Service  # noqa: E402
from repro.similarity import JaccardSimilarity, SimilarityGraph  # noqa: E402
from repro.stream import (  # noqa: E402
    ClusteringService,
    SqliteOperationLog,
    StreamConfig,
    add,
    open_checkpoints,
)
from repro.stream.events import ADD  # noqa: E402
from repro.stream.oplog import OperationLog  # noqa: E402


def factory():
    return DynamicC(
        SimilarityGraph(JaccardSimilarity(), store_threshold=0.05),
        CorrelationObjective(),
        seed=0,
    )


CUT = dict(n_shards=2, batch_max_ops=8, train_rounds=1)


def op(i):
    return add(i, f"tok{i % 5} shared{i % 3}")


class Budget:
    def __init__(self, seconds: float) -> None:
        self.deadline = time.monotonic() + seconds

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def exhausted(self) -> bool:
        return self.remaining() <= 0


class Cell:
    """One fault-matrix cell: accumulates sub-case outcomes."""

    def __init__(self, name: str, boundary: str, fault: str) -> None:
        self.record = {
            "cell": name,
            "boundary": boundary,
            "fault": fault,
            "cases": 0,
            "passed": 0,
            "failed": 0,
            "first_failure": None,
        }

    def case(self, label: str, check) -> None:
        self.record["cases"] += 1
        try:
            check()
        except BaseException as exc:  # InjectedCrash escaping counts too
            self.record["failed"] += 1
            if self.record["first_failure"] is None:
                self.record["first_failure"] = f"{label}: {type(exc).__name__}: {exc}"
        else:
            self.record["passed"] += 1


# ----------------------------------------------------------------------
# Crash sweeps (os-level and named-boundary)
# ----------------------------------------------------------------------
def sweep_publish(budget: Budget, round_no: int) -> Cell:
    cell = Cell("publish-atomicity", "ship.publish", "crash")
    from repro.replica import LogSegment

    ops = tuple(add(100 + i, f"p{i}").with_seq(1 + i) for i in range(3))
    artifact = LogSegment(1, 3, ops, primary_seq=3, shipped_at=1.0)
    with TemporaryDirectory() as tmp:
        base = Path(tmp)
        with FaultInjector() as dry:
            MailboxTransport(base / "dry").publish(artifact)
        for crash_at in range(1, len(dry) + 1):
            if budget.exhausted():
                break
            spool = base / f"c{crash_at}"

            def check(crash_at=crash_at, spool=spool):
                transport = MailboxTransport(spool)
                try:
                    with FaultInjector(crash_at=crash_at):
                        transport.publish(artifact)
                except InjectedCrash:
                    pass
                else:
                    raise AssertionError("crash point did not fire")
                polled = MailboxTransport(spool).poll()
                assert polled in ([], [artifact]), "partial artifact visible"

            cell.case(f"crash@{crash_at}", check)
    return cell


def sweep_checkpoint(budget: Budget, round_no: int) -> Cell:
    cell = Cell("checkpoint-atomicity", "checkpoint.save", "crash")
    old, new = {"applied_seq": 5, "s": ["old"]}, {"applied_seq": 9, "s": ["new"]}
    with TemporaryDirectory() as tmp:
        base = Path(tmp)
        with FaultInjector() as dry:
            open_checkpoints(base / "dry").save(dict(new))
        for crash_at in range(1, len(dry) + 1):
            if budget.exhausted():
                break

            def check(crash_at=crash_at):
                directory = base / f"c{crash_at}"
                store = open_checkpoints(directory)
                store.save(dict(old))
                try:
                    with FaultInjector(crash_at=crash_at):
                        store.save(dict(new))
                except InjectedCrash:
                    pass
                else:
                    raise AssertionError("crash point did not fire")
                got = open_checkpoints(directory).load_latest()
                assert got in (old, new), f"garbage checkpoint {got}"

            cell.case(f"crash@{crash_at}", check)
    return cell


def _sweep_truncate(cell: Cell, budget: Budget, make_log, reopen, boundaries):
    n_ops, through = 20, 10
    full = list(range(1, n_ops + 1))
    suffix = list(range(through + 1, n_ops + 1))
    with TemporaryDirectory() as tmp:
        base = Path(tmp)
        log = make_log(base / "dry")
        log.append([add(i, f"p{i}") for i in range(n_ops)])
        if boundaries is None:  # os-level sweep
            with FaultInjector() as dry:
                log.truncate_through(through)
            log.close()
            points = [(None, k) for k in range(1, len(dry) + 1)]
        else:  # named-boundary sweep (sqlite commits below os.fsync)
            with ErrorInjector() as census:
                log.truncate_through(through)
            log.close()
            points = [
                (b, k)
                for b in sorted(census.hits)
                for k in range(1, census.hits[b] + 1)
            ]
        for idx, (boundary, crash_at) in enumerate(points):
            if budget.exhausted():
                break

            def check(idx=idx, boundary=boundary, crash_at=crash_at):
                path = base / f"c{idx}"
                log = make_log(path)
                log.append([add(i, f"p{i}") for i in range(n_ops)])
                injector = (
                    FaultInjector(crash_at=crash_at)
                    if boundary is None
                    else ErrorInjector(FaultSpec(boundary, crash_at=crash_at))
                )
                try:
                    with injector:
                        log.truncate_through(through)
                except InjectedCrash:
                    pass
                else:
                    raise AssertionError("crash point did not fire")
                log.close()
                back = reopen(path)
                seqs = [o.seq for o in back.iter_from(0)]
                assert seqs in (full, suffix), f"torn truncate visible: {seqs}"
                assert back.last_seq == n_ops
                back.close()

            cell.case(f"{boundary or 'os'}@{crash_at}", check)
    return cell


def sweep_truncate_jsonl(budget: Budget, round_no: int) -> Cell:
    return _sweep_truncate(
        Cell("oplog-truncate-jsonl", "oplog.compact", "crash"),
        budget,
        lambda p: OperationLog(p.with_suffix(".jsonl")),
        lambda p: OperationLog(p.with_suffix(".jsonl")),
        boundaries=None,
    )


def sweep_truncate_sqlite(budget: Budget, round_no: int) -> Cell:
    return _sweep_truncate(
        Cell("oplog-truncate-sqlite", "oplog.compact", "crash"),
        budget,
        lambda p: SqliteOperationLog(p.with_suffix(".sqlite")),
        lambda p: SqliteOperationLog(p.with_suffix(".sqlite")),
        boundaries=True,
    )


# ----------------------------------------------------------------------
# Error-injection drills
# ----------------------------------------------------------------------
def drill_retry_heals_poll(budget: Budget, round_no: int) -> Cell:
    cell = Cell("spool-retry", "ship.poll", "eio-transient")

    def check():
        from repro.replica.follower import FollowerDaemon

        with TemporaryDirectory() as tmp:
            base = Path(tmp)
            config = StreamConfig(
                **CUT,
                oplog_path=base / "p" / "oplog.jsonl",
                checkpoint_dir=base / "p" / "ckpt",
            )
            primary = ClusteringService(factory, config)
            shipper = LogShipper(primary.oplog, snapshots=None, max_segment_ops=8)
            shipper.attach(MailboxTransport(base / "spool"), from_seq=0)
            daemon = FollowerDaemon(
                factory,
                StreamConfig(**CUT),
                base / "spool",
                retry=RetryPolicy(
                    max_attempts=3, base_delay_s=0.0, seed=round_no, sleep=lambda s: None
                ),
            )
            try:
                primary.ingest([op(i) for i in range(8)])
                shipper.ship(heartbeat=False)
                with ErrorInjector(eio("ship.poll", fail_times=2)):
                    applied = daemon.run_once()
                assert applied == 8, f"retry did not heal the drain ({applied})"
                assert daemon.poll_error is None
            finally:
                daemon.close()
                primary.close()

    cell.case(f"round{round_no}", check)
    return cell


def drill_tenant_isolation(budget: Budget, round_no: int) -> Cell:
    cell = Cell("tenant-isolation", "checkpoint.save", "enospc-persistent")

    def check():
        with TemporaryDirectory() as tmp:
            with Service.open(
                engine_factory=factory,
                **CUT,
                root_dir=Path(tmp) / "root",
                degraded_probe_s=0.05,
                degraded_probe_max_s=0.2,
            ) as svc:
                svc.tenant("alpha").ingest([op(i) for i in range(8)])
                svc.tenant("bravo").ingest([op(100 + i) for i in range(8)])
                with ErrorInjector(
                    enospc("checkpoint.save", path_substring="tenants/bravo/")
                ) as injector:
                    try:
                        svc.tenant("bravo").checkpoint()
                        raise AssertionError("ENOSPC checkpoint did not degrade")
                    except DegradedError:
                        pass
                    # Isolation: the neighbour ingests AND checkpoints.
                    assert svc.tenant("alpha").ingest([op(20)]) == 1
                    assert svc.tenant("alpha").checkpoint() is not None
                    report = svc.health.report()
                    assert (
                        report["checks"]["tenant:bravo:durability"]["status"]
                        == "degraded"
                    )
                    assert report["ready"] is True, "degraded tenant flipped /readyz"
                    injector.lift()
                    deadline = time.monotonic() + min(5.0, max(1.0, budget.remaining()))
                    while time.monotonic() < deadline:
                        status = svc.health.report()["checks"][
                            "tenant:bravo:durability"
                        ]["status"]
                        if status == "ok":
                            break
                        time.sleep(0.02)
                    else:
                        raise AssertionError("tenant never recovered after lift()")
                assert svc.tenant("bravo").ingest([op(300)]) == 1

    cell.case(f"round{round_no}", check)
    return cell


def drill_failover(budget: Budget, round_no: int) -> Cell:
    cell = Cell("failover", "oplog.append", "crash-mid-burst")

    def burst(base, acked):
        service = ClusteringService(
            factory,
            StreamConfig(
                **CUT,
                oplog_path=base / "primary" / "oplog.jsonl",
                checkpoint_dir=base / "primary" / "ckpt",
                fsync=True,
            ),
        )
        try:
            shipper = LogShipper(service.oplog, snapshots=None, max_segment_ops=8)
            shipper.attach(MailboxTransport(base / "spool"), from_seq=0)
            for batch in range(6):
                service.ingest([op(batch * 5 + i) for i in range(5)])
                shipper.ship(heartbeat=False)
                acked[0] = service.oplog.last_seq
            service.flush()
            shipper.ship(heartbeat=False)
            acked[0] = service.oplog.last_seq
        finally:
            service.close()

    with TemporaryDirectory() as tmp:
        base = Path(tmp)
        with FaultInjector() as dry:
            burst(base / "dry", [0])
        for crash_at in sample_crash_points(len(dry), k=4, seed=41 + round_no):
            if budget.exhausted():
                break

            def check(crash_at=crash_at):
                root = base / f"c{crash_at}"
                acked = [0]
                try:
                    with FaultInjector(crash_at=crash_at):
                        burst(root, acked)
                except InjectedCrash:
                    pass
                else:
                    raise AssertionError("crash point did not fire")
                follower = ReadReplica.bootstrap(
                    factory,
                    StreamConfig(
                        **CUT,
                        oplog_path=root / "follower" / "oplog.jsonl",
                        checkpoint_dir=root / "follower" / "ckpt",
                    ),
                    MailboxTransport(root / "spool"),
                    name="heir",
                )
                follower.poll()
                logged = list(follower.service.oplog.iter_from(0))
                promoted = follower.promote()
                try:
                    seqs = [o.seq for o in logged]
                    assert seqs == list(range(1, len(seqs) + 1)), "gap in promoted log"
                    assert promoted.oplog.last_seq >= acked[0], (
                        f"acked through {acked[0]}, log ends {promoted.oplog.last_seq}"
                    )
                    promoted.flush()
                    visible = promoted.membership.live_ids()
                    assert visible == {o.obj_id for o in logged if o.kind == ADD}
                finally:
                    promoted.close()

            cell.case(f"crash@{crash_at}", check)
    return cell


def drill_tear_shared_log(budget: Budget, round_no: int) -> Cell:
    cell = Cell("shared-oplog-tear", "oplog.append", "torn-tail")

    def check(seed):
        import shutil

        with TemporaryDirectory() as tmp:
            pristine = Path(tmp) / "pristine"
            svc = Service.open(engine_factory=factory, **CUT, root_dir=pristine)
            for i in range(10):
                svc.tenant("alpha").ingest([op(i)])
                svc.tenant("bravo").ingest([op(100 + i)])
            svc.manager.oplog.close()  # crash: no close(), no checkpoint

            root = Path(tmp) / "torn"
            shutil.copytree(pristine, root)
            tear_file(root / "oplog.jsonl", seed=seed)
            healed = OperationLog(root / "oplog.jsonl")
            surviving: dict = {}
            for o in healed.iter_from(0):
                if o.kind == ADD:
                    surviving.setdefault(o.tenant, set()).add(o.obj_id)
            healed.close()
            with Service.open(engine_factory=factory, **CUT, root_dir=root) as back:
                for tenant in ("alpha", "bravo"):
                    handle = back.tenant(tenant)
                    handle.flush()
                    live = set().union(*handle.clusters().values(), set())
                    assert live == surviving.get(tenant, set()), (
                        f"tenant {tenant}: recovered {sorted(live)} != healed "
                        f"log {sorted(surviving.get(tenant, set()))}"
                    )

    for seed in (5 + 100 * round_no, 7 + 100 * round_no):
        if budget.exhausted():
            break
        cell.case(f"seed{seed}", lambda seed=seed: check(seed))
    return cell


MATRIX = [
    sweep_publish,
    sweep_checkpoint,
    sweep_truncate_jsonl,
    sweep_truncate_sqlite,
    drill_retry_heals_poll,
    drill_tenant_isolation,
    drill_failover,
    drill_tear_shared_log,
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget-s", type=float, default=120.0)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "benchmarks"
        / "results"
        / "fault_matrix.json",
    )
    args = parser.parse_args()

    budget = Budget(args.budget_s)
    started = time.time()
    cells: dict[str, dict] = {}
    round_no = 0
    # Round 0 guarantees one pass over every cell even past budget;
    # later rounds deepen the sampled sweeps while time remains.
    while round_no == 0 or not budget.exhausted():
        for runner in MATRIX:
            if round_no > 0 and budget.exhausted():
                break
            record = runner(budget, round_no).record
            zero = dict(record, cases=0, passed=0, failed=0, rounds=0)
            total = cells.setdefault(record["cell"], zero)
            for key in ("cases", "passed", "failed"):
                total[key] += record[key]
            total["first_failure"] = total["first_failure"] or record["first_failure"]
            total["rounds"] += 1
        round_no += 1

    records = list(cells.values())
    for r in records:
        print(f"[chaos] {r['cell']}: {r['passed']}/{r['cases']} passed", flush=True)
    failed = sum(r["failed"] for r in records)
    report = {
        "budget_s": args.budget_s,
        "elapsed_s": round(time.time() - started, 3),
        "rounds": round_no,
        "cases": sum(r["cases"] for r in records),
        "passed": sum(r["passed"] for r in records),
        "failed": failed,
        "cells": records,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"[chaos] {report['passed']}/{report['cases']} cases passed over "
        f"{round_no} round(s) in {report['elapsed_s']}s -> {args.out}"
    )
    if failed:
        for record in records:
            if record["first_failure"]:
                print(
                    f"[chaos] FAILED {record['cell']}: {record['first_failure']}",
                    file=sys.stderr,
                )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
