"""Stream event model: the three §3.1 data operations as wire records.

An :class:`Operation` is one Add / Remove / Update of one object — the
unit the service ingests, the operation log persists, and the
micro-batcher coalesces into DynamicC rounds. Payloads are the same
opaque values the similarity graph stores (strings, token sets, numpy
vectors…), so the module also owns the payload codec that makes them
JSON-safe for the WAL and for checkpoints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

ADD = "add"
REMOVE = "remove"
UPDATE = "update"
#: Control marker, not a data operation: records a forced round
#: boundary (an explicit ``flush()``) in the WAL so replay cuts rounds
#: exactly where the live run did. Never accepted through ``ingest``.
FLUSH = "flush"
_KINDS = (ADD, REMOVE, UPDATE, FLUSH)
_PAYLOADLESS = (REMOVE, FLUSH)


@dataclass(frozen=True)
class Operation:
    """One data operation on one object.

    ``seq`` is the operation-log sequence number: 0 until the log
    assigns one (log sequences start at 1). ``shard`` is an optional
    routing stamp: balance-aware routers decide placement at ingest
    time and record it here *before* the operation is logged, so crash
    recovery and replicas replay to identical shard placement without
    re-running the routing policy. ``None`` means "derive by stable
    hash" — the stateless default.

    ``ingest_ts`` is the freshness watermark: the wall-clock instant
    (``time.time()`` — the cross-process clock domain, see
    :mod:`repro.obs`) the primary *accepted* the operation. Stamped by
    the service at ingest, never by a log backend, so replaying or
    re-appending the same record preserves the original watermark.
    ``None`` means unstamped (raw constructor output, or a record
    written before watermarks existed) — every consumer treats that as
    "no freshness information", not as time zero.

    ``tenant`` is the namespace stamp: which tenant's engine pool this
    operation belongs to when many tenants share one log (see
    :mod:`repro.serve`). Stamped at ingest — exactly like the routing
    stamp — so recovery, compaction, shipping and replicas can filter a
    shared log per tenant without any side table. ``None`` means the
    single-tenant world every pre-serve log was written in.
    """

    kind: str
    obj_id: int
    payload: Any = None
    seq: int = 0
    shard: int | None = None
    ingest_ts: float | None = None
    tenant: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown operation kind {self.kind!r}")
        if self.kind in _PAYLOADLESS:
            if self.payload is not None:
                raise ValueError(f"{self.kind} operations carry no payload")
        elif self.payload is None:
            raise ValueError(f"{self.kind} operations require a payload")

    def with_seq(self, seq: int) -> "Operation":
        return Operation(
            self.kind, self.obj_id, self.payload, seq, self.shard, self.ingest_ts,
            self.tenant,
        )

    def with_shard(self, shard: int) -> "Operation":
        return Operation(
            self.kind, self.obj_id, self.payload, self.seq, shard, self.ingest_ts,
            self.tenant,
        )

    def with_ingest_ts(self, ingest_ts: float) -> "Operation":
        return Operation(
            self.kind, self.obj_id, self.payload, self.seq, self.shard, ingest_ts,
            self.tenant,
        )

    def with_tenant(self, tenant: str) -> "Operation":
        return Operation(
            self.kind, self.obj_id, self.payload, self.seq, self.shard,
            self.ingest_ts, tenant,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        data = {"seq": self.seq, "kind": self.kind, "id": self.obj_id}
        if self.shard is not None:
            data["shard"] = self.shard
        if self.ingest_ts is not None:
            data["ts"] = self.ingest_ts
        if self.tenant is not None:
            data["tenant"] = self.tenant
        if self.kind not in _PAYLOADLESS:
            data["payload"] = encode_payload(self.payload)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Operation":
        shard = data.get("shard")
        ingest_ts = data.get("ts")
        tenant = data.get("tenant")
        return cls(
            kind=data["kind"],
            obj_id=int(data["id"]),
            payload=(
                decode_payload(data["payload"])
                if data["kind"] not in _PAYLOADLESS
                else None
            ),
            seq=int(data["seq"]),
            shard=int(shard) if shard is not None else None,
            ingest_ts=float(ingest_ts) if ingest_ts is not None else None,
            tenant=str(tenant) if tenant is not None else None,
        )


def add(obj_id: int, payload: Any) -> Operation:
    return Operation(ADD, obj_id, payload)


def remove(obj_id: int) -> Operation:
    return Operation(REMOVE, obj_id)


def update(obj_id: int, payload: Any) -> Operation:
    return Operation(UPDATE, obj_id, payload)


# ---------------------------------------------------------------------------
# Payload codec
# ---------------------------------------------------------------------------
# Scalars, strings and lists pass through; the container types the
# generators actually produce (numpy arrays, frozensets of tokens,
# tuples, dicts) are wrapped in single-key marker objects so decoding is
# unambiguous. Sets are serialised sorted — the encoding is canonical,
# so identical payloads produce identical WAL bytes.
#
# The codec sits on every write (WAL append) and every read of the log
# (recovery, tenant activation, shipping, replica spools), so token
# sets — the common payload — take two shortcuts that change no byte:
#
# * A string encodes to itself, and its canonical JSON text is exactly
#   ``json.encoder.encode_basestring_ascii(s)``: that is the function
#   ``json.dumps(s)`` calls for a ``str`` (``ensure_ascii`` is on by
#   default and ``sort_keys`` does not touch a string). Sorting the
#   members with it as the key is therefore the same order at one C
#   call per member. It raises ``TypeError`` for anything that is not
#   a ``str``, which sends mixed and non-string sets down the general
#   path.
# * Decoding a JSON scalar is the identity; only lists and dicts decode
#   to something else, and those are exactly the members that make
#   ``frozenset(members)`` raise ``TypeError``. A set of scalars is
#   therefore built straight from its list.

def _sorted_encoded(items) -> list:
    """Encode set members and order them canonically.

    Sorting the raw encodings would raise for non-primitive members
    (dict markers don't compare), so order by their canonical JSON.
    """
    try:
        return sorted(items, key=encode_basestring_ascii)
    except TypeError:  # a member that is not a str
        pass
    return sorted(
        (encode_payload(item) for item in items),
        key=lambda encoded: json.dumps(encoded, sort_keys=True),
    )


_ND = "__ndarray__"
_SET = "__set__"
_FROZENSET = "__frozenset__"
_TUPLE = "__tuple__"
_DICT = "__dict__"


def encode_payload(payload: Any) -> Any:
    """Encode a similarity-graph payload as JSON-compatible data."""
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    if isinstance(payload, np.ndarray):
        return {_ND: payload.tolist(), "dtype": str(payload.dtype)}
    if isinstance(payload, (np.integer, np.floating)):
        return payload.item()
    if isinstance(payload, frozenset):
        return {_FROZENSET: _sorted_encoded(payload)}
    if isinstance(payload, set):
        return {_SET: _sorted_encoded(payload)}
    if isinstance(payload, tuple):
        return {_TUPLE: [encode_payload(item) for item in payload]}
    if isinstance(payload, list):
        return [encode_payload(item) for item in payload]
    if isinstance(payload, dict):
        if any(not isinstance(key, str) for key in payload):
            # JSON keys are strings; coercing would silently change the
            # payload on a WAL/checkpoint roundtrip.
            raise TypeError("dict payloads must have string keys")
        return {_DICT: {key: encode_payload(value) for key, value in payload.items()}}
    raise TypeError(f"cannot encode payload of type {type(payload).__name__}")


def decode_payload(data: Any) -> Any:
    """Invert :func:`encode_payload`."""
    if isinstance(data, list):
        return [decode_payload(item) for item in data]
    if isinstance(data, dict):
        if _ND in data:
            return np.asarray(data[_ND], dtype=data["dtype"])
        if _FROZENSET in data:
            members = data[_FROZENSET]
            try:
                return frozenset(members)
            except TypeError:  # a list or marker-dict member
                pass
            return frozenset(decode_payload(item) for item in members)
        if _SET in data:
            members = data[_SET]
            try:
                return set(members)
            except TypeError:  # a list or marker-dict member
                pass
            return {decode_payload(item) for item in members}
        if _TUPLE in data:
            return tuple(decode_payload(item) for item in data[_TUPLE])
        if _DICT in data:
            return {key: decode_payload(value) for key, value in data[_DICT].items()}
        raise ValueError(f"unknown payload marker in {sorted(data)!r}")
    return data
