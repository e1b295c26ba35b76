"""Append-only operation log (the service's only hard state).

Following the log-first architecture of streaming engines (GnitzDB's
"hard state = operation log, everything else is soft state"), every
ingested operation is appended here as one record *before* it is
applied anywhere. All derived state — clusterings, similarity graphs,
trained models — can be rebuilt by replaying the log, or restored from
a checkpoint plus the log suffix.

The log is the replication seam too: anything that can read the log
can serve reads, so the storage contract is factored out as
:class:`LogBackend` with two implementations — the original JSONL
:class:`OperationLog` here and the sqlite-backed
:class:`~repro.stream.sqlite_backend.SqliteOperationLog` — selected by
:func:`open_log`.

Durability/robustness properties every backend provides:

* sequence numbers are assigned by the log, monotonically from 1;
* a crash mid-append leaves at most one torn final record, which
  re-open heals away (the WAL tail rule) and :meth:`LogBackend.iter_from`
  never yields past;
* :meth:`LogBackend.compact` atomically drops the prefix a checkpoint
  already covers.

The JSONL backend's read index is soft state: an in-memory index over
its records that the scan healing the tail at open rebuilds, every
append extends and compaction rebuilds, and that is never written to
disk nor consulted by crash recovery. It holds each record's seq and
byte offset (two ``array('q')``, 16 bytes per record) plus each
tenant's seqs, so :meth:`LogBackend.iter_from` bisects and seeks
straight to the suffix it was asked for and
:meth:`LogBackend.iter_tenant` reads only that tenant's records. A read
that finds a record the index did not expect (the file was changed by
something other than this object) rebuilds the index with a full scan
and is served from it. The sqlite backend needs no index: its reads go
through the ``seq`` primary key and filter tenants in SQL.
"""

from __future__ import annotations

import json
import os
import pathlib
from array import array
from bisect import bisect_left, bisect_right
from typing import Iterator, Sequence

from repro.faults.inject import fire
from repro.obs.telemetry import NULL_TELEMETRY

from .events import Operation

#: ``tenant=`` value of a read that wants every tenant's records.
_ANY = object()


def _decode(raw) -> dict | None:
    """One JSON record, or ``None`` when it is torn or undecodable."""
    try:
        return json.loads(raw)
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        return None


class LogBackend:
    """Storage contract for a seq-addressed, append-only operation log.

    Implementations own one durable medium (a JSONL file, a sqlite
    database, …) and guarantee the healed-tail invariant: after
    construction ``last_seq`` names the last durably readable record,
    and readers never observe anything beyond it.
    """

    #: Sequence number of the last durable record (0 when empty).
    last_seq: int

    #: Freshness watermark: the ``ingest_ts`` of the newest durable
    #: record that carries one (``None`` when the log is empty or
    #: predates watermarks). Wall-clock domain — see "Clock domains" in
    #: :mod:`repro.obs`. Recovered from the tail scan on open and
    #: advanced by every append, so the shipper can stamp segments and
    #: heartbeats with "the primary's log is fresh through T" without
    #: re-reading the log.
    last_watermark_ts: float | None = None

    #: Observability recorder; the zero-cost no-op by default. The
    #: owning service replaces it so append/fsync latencies land in the
    #: shared telemetry snapshot.
    obs = NULL_TELEMETRY

    def append(self, operations: Sequence[Operation]) -> list[Operation]:
        """Assign sequence numbers and durably append; returns stamped ops.

        All-or-nothing: encoding failures leave ``last_seq`` untouched,
        so a rejected batch cannot burn sequence numbers — a burned seq
        would read as a log gap at recovery time.
        """
        stamped = [
            operation.with_seq(self.last_seq + offset)
            for offset, operation in enumerate(operations, 1)
        ]
        self._commit(stamped)
        return stamped

    def append_stamped(self, operations: Sequence[Operation]) -> int:
        """Append operations that already carry sequence numbers.

        The replication path: a follower persists shipped records
        verbatim so its log is byte-equivalent in content to the
        primary's. Gap-refusing — every record must continue exactly at
        ``last_seq + 1`` or the whole batch is rejected (``ValueError``)
        before anything is written. Returns the number appended.
        """
        seq = self.last_seq
        for operation in operations:
            if operation.seq != seq + 1:
                raise ValueError(
                    f"stamped append breaks contiguity: expected seq "
                    f"{seq + 1}, got {operation.seq}"
                )
            seq = operation.seq
        self._commit(operations)
        return len(operations)

    def _commit(self, operations: Sequence[Operation]) -> None:
        """Encode and durably write already-stamped operations.

        Every record is encoded before anything is written, and
        ``last_seq`` and the watermark move only after the write
        succeeded — a failed batch leaves both as they were.
        """
        records = [json.dumps(operation.to_dict()) for operation in operations]
        if not records:
            return
        self._write(operations, records)
        for operation in operations:
            if operation.ingest_ts is not None:
                self.last_watermark_ts = operation.ingest_ts
        self.last_seq = operations[-1].seq

    def _write(self, operations: Sequence[Operation], records: list[str]) -> None:
        """Durably append one encoded record per operation; all or nothing.

        A backend with a read index extends it here, once the write
        succeeded.
        """
        raise NotImplementedError

    def iter_from(self, after_seq: int = 0) -> Iterator[Operation]:
        """Yield logged operations with ``seq > after_seq``, in order.

        Shares the healed-tail bound: records beyond ``last_seq`` as of
        the call (torn tails, concurrent writers) are never yielded.
        """
        raise NotImplementedError

    def iter_tenant(self, tenant: str | None, after_seq: int = 0) -> Iterator[Operation]:
        """Yield ``tenant``'s operations with ``seq > after_seq``, in order.

        The same records as filtering :meth:`iter_from` by
        ``op.tenant == tenant`` (``None`` selects untenanted records),
        under the same call-time ``last_seq`` bound, but only that
        tenant's records are read.
        """
        raise NotImplementedError

    def compact(self, upto_seq: int) -> int:
        """Drop all entries with ``seq <= upto_seq``; returns kept count."""
        raise NotImplementedError

    #: Cumulative bytes reclaimed by :meth:`truncate_through` over this
    #: object's lifetime (the ``oplog_reclaimed_bytes`` gauge).
    bytes_reclaimed: int = 0

    def truncate_through(self, seq: int) -> dict:
        """Compact away ``seq <=`` the given seq and report the footprint.

        The coordination-facing face of :meth:`compact`: callers that
        truncate (a service compacting up to its last shipped snapshot,
        a replica dropping log it re-based onto a restored snapshot)
        get back what the truncation actually bought — kept operations,
        bytes reclaimed, the resulting log size — and the reclaimed
        total accumulates in :attr:`bytes_reclaimed` for ``stats()``.
        Truncation never moves ``last_seq``: the upper bound of the log
        is durable history, only the prefix is dropped.
        """
        before = self.size_bytes()
        kept = self.compact(seq)
        after = self.size_bytes()
        reclaimed = max(0, before - after)
        self.bytes_reclaimed += reclaimed
        return {
            "truncated_through": seq,
            "kept_ops": kept,
            "reclaimed_bytes": reclaimed,
            "log_bytes": after,
        }

    def size_bytes(self) -> int:
        """Current on-disk footprint of the log (telemetry)."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "LogBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _records(handle) -> Iterator[tuple[int, int, dict]]:
    """``(start, end, record)`` of each JSONL line from offset 0.

    Blank lines are skipped. A line without its newline or that fails
    to decode ends the scan: it is a torn tail from a crash mid-append,
    and everything after it is unreadable garbage by definition.
    """
    end = 0
    for raw in handle:
        start, end = end, end + len(raw)
        if not raw.endswith(b"\n"):
            return
        if raw.isspace():
            continue
        data = _decode(raw)
        if data is None:
            return
        yield start, end, data


def _open_or_none(path: pathlib.Path):
    try:
        return open(path, "rb")
    except FileNotFoundError:
        return None


class OperationLog(LogBackend):
    """Append-only JSONL WAL of :class:`~repro.stream.events.Operation`.

    Parameters
    ----------
    path:
        Log file; created (with parents) when missing.
    fsync:
        Force an ``fsync`` after every append batch. Off by default —
        the benchmarks and tests don't need power-loss durability, and
        a flush already survives process crashes.
    """

    def __init__(self, path, fsync: bool = False) -> None:
        self.path = pathlib.Path(path)
        self.fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.last_seq = self._heal_tail()
        self._handle = open(self.path, "ab")

    def _reset_index(self) -> None:
        #: Soft read index: seq and byte offset of every record, in
        #: file order (both ascending), and ``tenant -> ascending seqs``
        #: (``None`` keys untenanted records).
        self._seqs = array("q")
        self._offsets = array("q")
        self._tenant_seqs = {}

    def _index(self, seq: int, offset: int, tenant: str | None) -> None:
        self._seqs.append(seq)
        self._offsets.append(offset)
        seqs = self._tenant_seqs.get(tenant)
        if seqs is None:
            seqs = self._tenant_seqs[tenant] = array("q")
        seqs.append(seq)

    def _heal_tail(self) -> int:
        """Truncate any torn final line and rebuild the index; returns the last valid seq.

        Without the truncation, the next append would concatenate onto
        the partial line and corrupt an otherwise-valid record.
        """
        self._reset_index()
        if not self.path.exists():
            return 0
        last_seq = 0
        valid_end = 0
        with open(self.path, "r+b") as handle:
            for start, valid_end, data in _records(handle):
                last_seq = int(data["seq"])
                self._index(last_seq, start, data.get("tenant"))
                ts = data.get("ts")
                if ts is not None:
                    self.last_watermark_ts = float(ts)
            handle.truncate(valid_end)
        return last_seq

    # ------------------------------------------------------------------
    def _write(self, operations: Sequence[Operation], records: list[str]) -> None:
        fire("oplog.append", self.path)
        payload = ("\n".join(records) + "\n").encode("utf-8")
        obs = self.obs
        start = self._handle.tell()
        try:
            if obs.enabled:
                with obs.span("oplog.append", records=len(records)):
                    self._handle.write(payload)
                    self._handle.flush()
                    if self.fsync:
                        fire("oplog.fsync", self.path)
                        with obs.span("oplog.fsync"):
                            os.fsync(self._handle.fileno())
            else:
                self._handle.write(payload)
                self._handle.flush()
                if self.fsync:
                    fire("oplog.fsync", self.path)
                    os.fsync(self._handle.fileno())
        except Exception:
            # An I/O *error* (not a crash: InjectedCrash is a
            # BaseException and skips this, like real process death
            # would) may leave the batch partially written — e.g. the
            # write landed but the fsync failed. Rewind so a retry of
            # the same batch cannot append duplicate records after the
            # flushed first attempt. Truncation leaves the position
            # where the write ended, so seek back too: the next batch's
            # offsets are taken from it.
            try:
                self._handle.truncate(start)
                self._handle.seek(start)
            except OSError:
                pass  # reopen-time tail healing remains the backstop
            raise
        offset = start
        for operation, record in zip(operations, records):
            self._index(operation.seq, offset, operation.tenant)
            offset += len(record) + 1  # json.dumps output is ASCII

    def iter_from(self, after_seq: int = 0) -> Iterator[Operation]:
        # Captured at call time: appends racing this read (or a torn
        # tail a crashed co-writer left) must not leak past the bound.
        bound = self.last_seq
        seqs = self._seqs
        positions = range(bisect_right(seqs, after_seq), bisect_right(seqs, bound))
        return self._read(seqs, self._offsets, positions, after_seq, bound, _ANY)

    def iter_tenant(self, tenant: str | None, after_seq: int = 0) -> Iterator[Operation]:
        bound = self.last_seq
        seqs = self._seqs
        tenant_seqs = self._tenant_seqs.get(tenant, ())
        positions = [
            bisect_left(seqs, seq)
            for seq in tenant_seqs[
                bisect_right(tenant_seqs, after_seq) : bisect_right(tenant_seqs, bound)
            ]
        ]
        return self._read(seqs, self._offsets, positions, after_seq, bound, tenant)

    def _read(self, seqs, offsets, positions, after_seq, bound, tenant):
        """Seek to each indexed record in ``positions`` and decode it.

        Every record must carry the seq (and tenant) the index expects.
        The first one that does not — or a missing file — means the file
        was changed behind this object's back: the rest of the read is
        served from a full rescan, which also rebuilds the index.
        """
        if not positions:
            return
        done = after_seq
        handle = _open_or_none(self.path)
        if handle is not None:
            with handle:
                for position in positions:
                    handle.seek(offsets[position])
                    raw = handle.readline()
                    data = _decode(raw) if raw.endswith(b"\n") else None
                    if (
                        data is None
                        or data.get("seq") != seqs[position]
                        or (tenant is not _ANY and data.get("tenant") != tenant)
                    ):
                        break
                    done = seqs[position]
                    yield Operation.from_dict(data)
                else:
                    return
        yield from self._rescan(done, bound, tenant)

    def _rescan(self, after_seq: int, bound: int, tenant) -> list[Operation]:
        """Rebuild the index from a full scan; return what a stale read owes.

        The owed records are collected before the first is yielded, so
        a reader that stops early cannot leave a half-built index.
        """
        self._reset_index()
        owed = []
        handle = _open_or_none(self.path)
        if handle is None:
            return owed
        with handle:
            for start, _, data in _records(handle):
                seq = int(data["seq"])
                if seq > self.last_seq:
                    break
                self._index(seq, start, data.get("tenant"))
                if after_seq < seq <= bound and (
                    tenant is _ANY or data.get("tenant") == tenant
                ):
                    owed.append(data)
        return [Operation.from_dict(data) for data in owed]

    def compact(self, upto_seq: int) -> int:
        """Drop all entries with ``seq <= upto_seq``; returns kept count.

        Safe against crashes: the suffix is written to a temp file which
        is atomically renamed over the log.
        """
        fire("oplog.compact", self.path)
        kept = list(self.iter_from(upto_seq))
        offsets = []
        temp = self.path.with_suffix(self.path.suffix + ".compact")
        # Write the suffix before touching the live handle: a failure
        # here (disk full, fsync error) leaves the log fully usable.
        with open(temp, "wb") as handle:
            offset = 0
            for operation in kept:
                line = (json.dumps(operation.to_dict()) + "\n").encode("utf-8")
                handle.write(line)
                offsets.append(offset)
                offset += len(line)
            handle.flush()
            os.fsync(handle.fileno())
        self._handle.close()
        try:
            os.replace(temp, self.path)
            self._reset_index()
            for operation, offset in zip(kept, offsets):
                self._index(operation.seq, offset, operation.tenant)
            from .checkpoint import fsync_directory

            fsync_directory(self.path.parent)
        finally:
            # Reopen even if the rename failed, so the log object keeps
            # working against whichever file survived (and whose index
            # it still holds).
            self._handle = open(self.path, "ab")
        return len(kept)

    def size_bytes(self) -> int:
        if not self._handle.closed:
            self._handle.flush()
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "OperationLog":
        return self


LOG_BACKENDS = ("jsonl", "sqlite")


def open_log(path, backend: str = "jsonl", fsync: bool = False) -> LogBackend:
    """Open an operation log with the named storage backend."""
    if backend == "jsonl":
        return OperationLog(path, fsync=fsync)
    if backend == "sqlite":
        from .sqlite_backend import SqliteOperationLog

        return SqliteOperationLog(path, fsync=fsync)
    raise ValueError(f"unknown log backend {backend!r}; choose from {LOG_BACKENDS}")
