"""The oplog's soft read index: an oracle test and cost pins.

The JSONL backend keeps an in-memory index (per-record seq and byte
offset plus per-tenant seqs) that ``iter_from`` and ``iter_tenant``
read through; the sqlite backend reads through its ``seq`` primary key
and a tenant filter in SQL. The oracle drives seeded interleavings of
appends, stamped appends, truncation, torn reopens and injected append
and fsync errors on both backends, and after every step compares every
read against a brute-force decode of the whole medium. The cost pins
count ``Operation.from_dict`` calls: shipping a suffix decodes only
the suffix, and activating a tenant decodes only its records.
"""

from __future__ import annotations

import json
import random
import sqlite3

import pytest

from repro.clustering.objectives import DBIndexObjective
from repro.core import DynamicC
from repro.data.generators import generate_access
from repro.faults import ErrorInjector, eio, tear_file
from repro.replica import InProcessTransport, LogShipper
from repro.serve import Service
from repro.stream import Operation, add, open_log, remove
from repro.stream.oplog import OperationLog

BACKENDS = ("jsonl", "sqlite")
TENANTS = ("a", "b", "c", None)


def log_path(tmp_path, backend):
    return tmp_path / f"oplog.{'jsonl' if backend == 'jsonl' else 'sqlite'}"


def brute_force(log) -> list[Operation]:
    """Every readable record up to ``last_seq``, decoded from scratch."""
    if isinstance(log, OperationLog):
        records = []
        for raw in log.path.read_bytes().splitlines(keepends=True):
            if not raw.endswith(b"\n"):
                break
            if raw.isspace():
                continue
            try:
                records.append(json.loads(raw))
            except ValueError:
                break
    else:
        conn = sqlite3.connect(str(log.path))
        records = [
            json.loads(record)
            for (record,) in conn.execute("SELECT record FROM oplog ORDER BY seq")
        ]
        conn.close()
    operations = []
    for data in records:
        operation = Operation.from_dict(data)
        if operation.seq > log.last_seq:
            break
        operations.append(operation)
    return operations


def index_state(log) -> dict:
    """The JSONL backend's soft index; the sqlite backend keeps none."""
    if not isinstance(log, OperationLog):
        return {}
    return {
        "seqs": log._seqs.tolist(),
        "offsets": log._offsets.tolist(),
        "tenants": {
            tenant: seqs.tolist() for tenant, seqs in log._tenant_seqs.items() if seqs
        },
    }


def assert_reads_match(log) -> None:
    everything = brute_force(log)
    for k in range(log.last_seq + 2):
        want = [op for op in everything if op.seq > k]
        assert list(log.iter_from(k)) == want, k
        for tenant in TENANTS:
            assert list(log.iter_tenant(tenant, k)) == [
                op for op in want if op.tenant == tenant
            ], (tenant, k)


def tear(path, backend, seed) -> None:
    """Damage the tail the way a crash mid-append would."""
    if backend == "jsonl":
        if path.stat().st_size > 1:
            tear_file(path, seed=seed)
        return
    conn = sqlite3.connect(str(path))
    (last,) = conn.execute("SELECT MAX(seq) FROM oplog").fetchone()
    if last is not None:
        (record,) = conn.execute(
            "SELECT record FROM oplog WHERE seq = ?", (last,)
        ).fetchone()
        conn.execute(
            "UPDATE oplog SET record = ? WHERE seq = ?",
            (record[: len(record) // 2], last),
        )
        conn.commit()
    conn.close()


def random_ops(rng, n) -> list[Operation]:
    ops = []
    for _ in range(n):
        obj_id = rng.randrange(50)
        op = remove(obj_id) if rng.random() < 0.2 else add(obj_id, f"p{obj_id}")
        tenant = rng.choice(TENANTS)
        ops.append(op.with_tenant(tenant) if tenant is not None else op)
    return ops


class TestIndexOracle:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_interleavings_match_brute_force(
        self, tmp_path, backend, seed, monkeypatch
    ):
        # Only the log object writes here, so no read may need a rescan.
        monkeypatch.setattr(OperationLog, "_rescan", None)
        rng = random.Random(seed)
        path = log_path(tmp_path, backend)
        # fsync on, so an error can also hit after the batch was written.
        log = open_log(path, backend=backend, fsync=True)
        try:
            for step in range(30):
                action = rng.choice(
                    ["append", "append", "append", "stamped", "truncate", "tear", "eio"]
                )
                if action == "append":
                    log.append(random_ops(rng, rng.randint(1, 6)))
                elif action == "stamped":
                    ops = random_ops(rng, rng.randint(1, 4))
                    log.append_stamped(
                        [op.with_seq(log.last_seq + i) for i, op in enumerate(ops, 1)]
                    )
                elif action == "truncate":
                    log.truncate_through(rng.randint(0, log.last_seq))
                elif action == "tear":
                    log.close()
                    tear(path, backend, seed=seed * 100 + step)
                    log = open_log(path, backend=backend, fsync=True)
                else:
                    before = (index_state(log), log.last_seq, log.last_watermark_ts)
                    point = rng.choice(["oplog.append", "oplog.fsync"])
                    with ErrorInjector(eio(point)):
                        with pytest.raises(OSError):
                            log.append(random_ops(rng, 3))
                    # The failed batch leaves the index (and the seq and
                    # watermark it guards) exactly as it was.
                    assert (
                        index_state(log), log.last_seq, log.last_watermark_ts
                    ) == before
                # Soft state: the index equals what a fresh open rebuilds.
                fresh = open_log(path, backend=backend)
                try:
                    assert index_state(fresh) == index_state(log)
                finally:
                    fresh.close()
                assert_reads_match(log)
        finally:
            log.close()

    def test_rewrite_by_another_writer_rebuilds_the_index(self, tmp_path):
        """A file changed behind the log object's back: seq mismatch → rescan."""
        path = tmp_path / "oplog.jsonl"
        log = open_log(path)
        try:
            log.append(random_ops(random.Random(7), 40))
            # Another writer compacts the same file (a rename over it).
            other = open_log(path)
            other.compact(15)
            other.close()
            fresh = open_log(path)
            rebuilt = index_state(fresh)
            fresh.close()
            assert index_state(log) != rebuilt
            assert_reads_match(log)
            assert index_state(log) == rebuilt

            # Another writer re-serialises every record more compactly:
            # the same seqs at different byte offsets.
            lines = path.read_bytes().splitlines()
            path.write_bytes(
                b"".join(
                    json.dumps(json.loads(line), separators=(",", ":")).encode() + b"\n"
                    for line in lines
                )
            )
            assert list(log.iter_tenant("a", 20)) == [
                op for op in brute_force(log) if op.seq > 20 and op.tenant == "a"
            ]
            assert index_state(log)["offsets"] != rebuilt["offsets"]
            assert_reads_match(log)
        finally:
            log.close()

    def test_sqlite_reads_see_rows_deleted_by_another_writer(self, tmp_path):
        path = tmp_path / "oplog.sqlite"
        log = open_log(path, backend="sqlite")
        try:
            log.append(random_ops(random.Random(8), 40))
            conn = sqlite3.connect(str(path))
            conn.execute("DELETE FROM oplog WHERE seq <= 15")
            conn.commit()
            conn.close()
            assert_reads_match(log)
        finally:
            log.close()


@pytest.fixture
def count_decodes(monkeypatch):
    """Record the seq of every ``Operation.from_dict`` call."""
    decoded: list[int] = []
    original = Operation.from_dict.__func__

    def counting(cls, data):
        decoded.append(data["seq"])
        return original(cls, data)

    monkeypatch.setattr(Operation, "from_dict", classmethod(counting))
    return decoded


class TestReadCost:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ship_decodes_only_the_unshipped_suffix(
        self, tmp_path, backend, count_decodes
    ):
        rng = random.Random(3)
        with open_log(log_path(tmp_path, backend), backend=backend) as log:
            log.append(random_ops(rng, 2000))
            shipper = LogShipper(log)
            transport = InProcessTransport()
            shipper.attach(transport, from_seq=0)
            shipper.ship()
            log.append(random_ops(rng, 64))
            count_decodes.clear()
            shipper.ship()
            shipped = [op for segment in transport.poll() for op in segment.operations]
        assert [op.seq for op in shipped][-64:] == list(range(2001, 2065))
        assert len(count_decodes) <= 64 + 2

    def test_activating_a_fresh_tenant_decodes_nothing(self, tmp_path, count_decodes):
        dataset = generate_access(n_profiles=4, n_records=60, seed=5)
        service = Service.open(
            engine_factory=lambda: DynamicC(
                dataset.graph(), DBIndexObjective(), seed=0
            ),
            root_dir=tmp_path / "state",
            n_shards=1,
            batch_max_ops=8,
            train_rounds=1,
        )
        try:
            for name in ("a", "b"):
                service.tenant(name).ingest(
                    [add(i, dataset.records[i].payload) for i in range(20)]
                )
            assert service.manager.oplog.last_seq >= 40
            count_decodes.clear()
            service.manager.activate("fresh")
            assert count_decodes == []
            assert service.tenant("fresh").num_objects() == 0
        finally:
            service.close()
