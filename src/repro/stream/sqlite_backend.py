"""sqlite storage backends for the operation log and checkpoint store.

One file per artefact, stdlib ``sqlite3`` only. The schema is
deliberately dumb — ``(seq INTEGER PRIMARY KEY, record TEXT)`` rows
holding the same canonical JSON the JSONL backend writes per line — so
the two backends are interchangeable at the Operation level: healing a
torn tail, replaying a suffix and compacting a prefix all produce
identical operation sequences.

Torn-tail healing: sqlite's own journal makes *committed* transactions
atomic, but the log must also survive media-level damage and writers
that died mid-transaction under journal modes that can't roll back
(or rows scribbled by other tools). Open-time healing therefore
re-validates the row stream exactly like the JSONL backend validates
lines: scan in seq order, stop at the first row that fails to decode
or breaks seq contiguity, and delete it and everything after it.
"""

from __future__ import annotations

import json
import pathlib
import sqlite3
from typing import Iterator, Sequence

from repro.faults.inject import fire

from .checkpoint import CheckpointStore
from .events import Operation
from .oplog import LogBackend


def _connect(path: pathlib.Path, fsync: bool) -> sqlite3.Connection:
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(str(path))
    conn.isolation_level = None  # explicit BEGIN/COMMIT
    # NORMAL matches the JSONL backend's flush-but-no-fsync default;
    # FULL buys power-loss durability like fsync=True does there.
    conn.execute(f"PRAGMA synchronous={'FULL' if fsync else 'NORMAL'}")
    return conn


class SqliteOperationLog(LogBackend):
    """Seq-addressed operation log stored as rows in one sqlite file."""

    def __init__(self, path, fsync: bool = False) -> None:
        self.path = pathlib.Path(path)
        self.fsync = fsync
        self._conn = _connect(self.path, fsync)
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS oplog ("
            "seq INTEGER PRIMARY KEY, record TEXT NOT NULL)"
        )
        self.last_seq = self._heal_tail()

    def _heal_tail(self) -> int:
        """Delete every row at or after the first undecodable one.

        Mirrors the JSONL heal rule exactly: scan in order, stop at the
        first record that fails to decode (or disagrees with its own
        row key), drop it and everything after it, and report the last
        surviving seq. Seq *gaps* between valid records survive healing
        on both backends — the recovery replay owns gap detection.
        """
        last_seq = 0
        torn_seq = None
        for seq, record in self._conn.execute(
            "SELECT seq, record FROM oplog ORDER BY seq"
        ):
            try:
                operation = Operation.from_dict(json.loads(record))
            except Exception:
                torn_seq = seq
                break
            if operation.seq != seq:
                torn_seq = seq
                break
            last_seq = seq
            if operation.ingest_ts is not None:
                self.last_watermark_ts = operation.ingest_ts
        if torn_seq is not None:
            self._conn.execute("BEGIN")
            self._conn.execute("DELETE FROM oplog WHERE seq >= ?", (torn_seq,))
            self._conn.execute("COMMIT")
        return last_seq

    # ------------------------------------------------------------------
    def _rollback(self) -> None:
        """Abandon an in-flight transaction so the connection stays usable.

        A fault injected between BEGIN and COMMIT leaves the connection
        mid-transaction; without the rollback the *retry* would die on
        "cannot start a transaction within a transaction" instead of
        exercising the recovery path. On-disk state is unchanged either
        way — an uncommitted transaction is exactly what crash recovery
        discards.
        """
        try:
            self._conn.execute("ROLLBACK")
        except sqlite3.Error:
            pass  # no transaction active, or the connection is gone

    def _write(self, operations: Sequence[Operation], records: list[str]) -> None:
        rows = [(operation.seq, record) for operation, record in zip(operations, records)]
        fire("oplog.append", self.path)
        obs = self.obs
        try:
            if obs.enabled:
                # The COMMIT is where sqlite pays its durability cost (the
                # fsync analogue under synchronous=FULL), so it gets its own
                # span like the JSONL backend's oplog.fsync.
                with obs.span("oplog.append", records=len(rows)):
                    self._conn.execute("BEGIN")
                    self._conn.executemany(
                        "INSERT INTO oplog (seq, record) VALUES (?, ?)", rows
                    )
                    fire("oplog.fsync", self.path)
                    with obs.span("oplog.fsync"):
                        self._conn.execute("COMMIT")
                return
            self._conn.execute("BEGIN")
            self._conn.executemany(
                "INSERT INTO oplog (seq, record) VALUES (?, ?)", rows
            )
            fire("oplog.fsync", self.path)
            self._conn.execute("COMMIT")
        except BaseException:  # includes InjectedCrash
            self._rollback()
            raise

    def iter_from(self, after_seq: int = 0) -> Iterator[Operation]:
        bound = self.last_seq
        for (record,) in self._conn.execute(
            "SELECT record FROM oplog WHERE seq > ? AND seq <= ? ORDER BY seq",
            (after_seq, bound),
        ):
            yield Operation.from_dict(json.loads(record))

    def iter_tenant(self, tenant: str | None, after_seq: int = 0) -> Iterator[Operation]:
        bound = self.last_seq
        # ``IS`` so that ``None`` selects the records without a tenant.
        for (record,) in self._conn.execute(
            "SELECT record FROM oplog WHERE seq > ? AND seq <= ? "
            "AND json_extract(record, '$.tenant') IS ? ORDER BY seq",
            (after_seq, bound, tenant),
        ):
            yield Operation.from_dict(json.loads(record))

    def compact(self, upto_seq: int) -> int:
        fire("oplog.compact", self.path)
        try:
            self._conn.execute("BEGIN")
            dropped = self._conn.execute(
                "DELETE FROM oplog WHERE seq <= ?", (upto_seq,)
            ).rowcount
            fire("oplog.fsync", self.path)
            self._conn.execute("COMMIT")
        except BaseException:
            self._rollback()
            raise
        if dropped:
            fire("oplog.compact", self.path)
            # Reclaim the pages too — the JSONL backend rewrites its
            # file on compact, and the whole point of compaction is a
            # bounded on-disk footprint (size_bytes feeds oplog_bytes /
            # reclaimed-bytes telemetry, which must not sit at the
            # high-water mark forever). A no-op delete skips the VACUUM:
            # rewriting the whole database to drop zero rows would make
            # every steady-state checkpoint O(log size).
            self._conn.execute("VACUUM")
        return self._conn.execute("SELECT COUNT(*) FROM oplog").fetchone()[0]

    def size_bytes(self) -> int:
        page_count = self._conn.execute("PRAGMA page_count").fetchone()[0]
        page_size = self._conn.execute("PRAGMA page_size").fetchone()[0]
        return page_count * page_size

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SqliteOperationLog":
        return self


class SqliteCheckpointStore(CheckpointStore):
    """Numbered JSON snapshots as rows in one sqlite file.

    Snapshots matter more than throughput, so commits always run at
    ``synchronous=FULL`` regardless of the service's oplog fsync
    setting — the checkpoint is what compaction trusts.
    """

    def __init__(self, path, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.path = pathlib.Path(path)
        self.keep = keep
        self._conn = _connect(self.path, fsync=True)
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS checkpoints ("
            "applied_seq INTEGER PRIMARY KEY, state TEXT NOT NULL)"
        )

    def list_seqs(self) -> list[int]:
        return [
            row[0]
            for row in self._conn.execute(
                "SELECT applied_seq FROM checkpoints ORDER BY applied_seq"
            )
        ]

    def save(self, state: dict) -> pathlib.Path:
        applied_seq = int(state["applied_seq"])
        fire("checkpoint.save", self.path)
        try:
            self._conn.execute("BEGIN")
            self._conn.execute(
                "INSERT OR REPLACE INTO checkpoints (applied_seq, state) "
                "VALUES (?, ?)",
                (applied_seq, json.dumps(state)),
            )
            self._conn.execute("COMMIT")
        except BaseException:
            try:
                self._conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            raise
        self.prune()
        return self.path

    def load_latest(self) -> dict | None:
        fire("checkpoint.load", self.path)
        for (state,) in self._conn.execute(
            "SELECT state FROM checkpoints ORDER BY applied_seq DESC"
        ):
            try:
                return json.loads(state)
            except json.JSONDecodeError:
                continue
        return None

    def prune(self) -> None:
        seqs = self.list_seqs()
        if len(seqs) <= self.keep:
            return
        cutoff = seqs[-self.keep]
        self._conn.execute("BEGIN")
        self._conn.execute(
            "DELETE FROM checkpoints WHERE applied_seq < ?", (cutoff,)
        )
        self._conn.execute("COMMIT")

    def close(self) -> None:
        self._conn.close()
