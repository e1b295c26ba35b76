"""Unit tests for the repro.stream building blocks (events, oplog,
batching, routing, checkpoints, metrics)."""

import hashlib
import json

import numpy as np
import pytest

from repro.stream import (
    CheckpointManager,
    HashRouter,
    MembershipTable,
    MicroBatcher,
    Operation,
    OperationLog,
    RoundOps,
    add,
    global_cluster_id,
    parse_cluster_id,
    remove,
    stable_hash,
    update,
)
from repro.data.generators import generate_cora
from repro.obs import MetricsRegistry, Telemetry
from repro.stream import events as events_module
from repro.stream.events import _sorted_encoded, decode_payload, encode_payload
from repro.stream.service import StreamInstruments


class TestEvents:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            Operation("upsert", 1, "x")
        with pytest.raises(ValueError):
            Operation("remove", 1, "payload")
        with pytest.raises(ValueError):
            Operation("add", 1, None)

    @pytest.mark.parametrize(
        "payload",
        [
            "a string record",
            frozenset({"token", "set"}),
            {"s", "e", "t"},
            (1.5, "mixed", (2, 3)),
            [1, 2, [3, 4]],
            {"key": np.asarray([1.0, 2.0]), "nested": {"x": 1}},
            np.asarray([0.25, -1.5, 3.0]),
            None,
            42,
            3.5,
            True,
        ],
    )
    def test_payload_codec_roundtrip(self, payload):
        encoded = encode_payload(payload)
        json.dumps(encoded)  # must be JSON-compatible
        decoded = decode_payload(encoded)
        if isinstance(payload, np.ndarray):
            assert np.array_equal(decoded, payload)
        elif isinstance(payload, dict):
            assert set(decoded) == set(payload)
            assert np.array_equal(decoded["key"], payload["key"])
            assert decoded["nested"] == payload["nested"]
        else:
            assert decoded == payload
            assert type(decoded) is type(payload)

    def test_operation_dict_roundtrip(self):
        op = update(7, np.asarray([1.0, 2.0])).with_seq(12)
        back = Operation.from_dict(op.to_dict())
        assert back.kind == "update" and back.obj_id == 7 and back.seq == 12
        assert np.array_equal(back.payload, op.payload)

    def test_canonical_set_encoding(self):
        a = encode_payload(frozenset({"b", "a", "c"}))
        b = encode_payload(frozenset({"c", "b", "a"}))
        assert json.dumps(a) == json.dumps(b)

    def test_set_of_nonprimitive_members(self):
        # Raw encodings of tuples are marker dicts, which don't compare;
        # the codec must still order them canonically.
        payload = frozenset({(1, 2), (0, 3), (0, 2)})
        assert decode_payload(encode_payload(payload)) == payload
        mixed = frozenset({1, "a"})
        assert decode_payload(encode_payload(mixed)) == mixed

    def test_dict_payload_non_string_keys_rejected(self):
        # JSON would stringify the keys, silently mutating the payload
        # on a WAL roundtrip — refuse instead.
        with pytest.raises(TypeError):
            encode_payload({1: "a"})

    def test_flush_marker_roundtrip(self):
        marker = Operation("flush", 0).with_seq(9)
        assert Operation.from_dict(marker.to_dict()) == marker
        with pytest.raises(ValueError):
            Operation("flush", 0, payload="x")


class TestOperationLog:
    def test_append_assigns_monotonic_seqs(self, tmp_path):
        with OperationLog(tmp_path / "wal.jsonl") as log:
            stamped = log.append([add(1, "a"), add(2, "b"), remove(1)])
            assert [op.seq for op in stamped] == [1, 2, 3]
            assert log.last_seq == 3

    def test_reopen_continues_sequence(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with OperationLog(path) as log:
            log.append([add(1, "a")])
        with OperationLog(path) as log:
            assert log.last_seq == 1
            stamped = log.append([add(2, "b")])
            assert stamped[0].seq == 2
            assert [op.obj_id for op in log.iter_from()] == [1, 2]

    def test_replay_after_seq(self, tmp_path):
        with OperationLog(tmp_path / "wal.jsonl") as log:
            log.append([add(i, str(i)) for i in range(5)])
            assert [op.seq for op in log.iter_from(3)] == [4, 5]

    def test_torn_tail_ignored(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with OperationLog(path) as log:
            log.append([add(1, "a"), add(2, "b")])
        with open(path, "a") as handle:
            handle.write('{"seq": 3, "kind": "add", "id": 3, "pay')  # crash mid-write
        with OperationLog(path) as log:
            assert [op.obj_id for op in log.iter_from()] == [1, 2]
            # The torn line is superseded; the next append reuses seq 3.
            assert log.append([add(4, "d")])[0].seq == 3

    def test_failed_append_burns_no_seqs(self, tmp_path):
        # An unencodable payload must not advance last_seq: a burned
        # seq reads as a log gap at recovery time.
        with OperationLog(tmp_path / "wal.jsonl") as log:
            log.append([add(1, "a")])
            with pytest.raises(TypeError):
                log.append([add(2, "b"), add(3, {4: "bad-key"})])
            assert log.last_seq == 1
            assert log.append([add(5, "c")])[0].seq == 2
            assert [op.seq for op in log.iter_from()] == [1, 2]

    def test_compact(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with OperationLog(path) as log:
            log.append([add(i, str(i)) for i in range(6)])
            kept = log.compact(upto_seq=4)
            assert kept == 2
            assert [op.seq for op in log.iter_from()] == [5, 6]
            # Appends continue beyond the compacted prefix.
            assert log.append([add(9, "i")])[0].seq == 7

    def test_failed_compact_leaves_log_usable(self, tmp_path, monkeypatch):
        path = tmp_path / "wal.jsonl"
        with OperationLog(path) as log:
            log.append([add(i, str(i)) for i in range(4)])
            monkeypatch.setattr(
                "os.replace", lambda *a, **k: (_ for _ in ()).throw(OSError("boom"))
            )
            with pytest.raises(OSError):
                log.compact(upto_seq=2)
            monkeypatch.undo()
            # The log object still appends and replays correctly.
            assert log.append([add(9, "x")])[0].seq == 5
            assert [op.seq for op in log.iter_from()] == [1, 2, 3, 4, 5]


class TestBatchingFold:
    def test_fold_nets_out_per_id(self):
        ops = [
            add(1, "a"),
            add(2, "b"),
            remove(2),          # add+remove in batch: no-op
            update(3, "c1"),
            update(3, "c2"),    # last payload wins
            remove(4),
            add(4, "d"),        # remove+add same id: update (§6.1)
        ]
        folded = RoundOps.fold([op.with_seq(i + 1) for i, op in enumerate(ops)])
        assert folded.added == {1: "a"}
        assert folded.updated == {3: "c2", 4: "d"}
        assert folded.removed == []
        assert folded.first_seq == 1 and folded.last_seq == 7
        assert folded.raw_count == 7

    def test_add_then_update_stays_add(self):
        folded = RoundOps.fold([add(1, "a"), update(1, "a2")])
        assert folded.added == {1: "a2"} and not folded.updated

    def test_normalized_against_membership(self):
        folded = RoundOps.fold(
            [add(1, "new"), add(2, "dup"), update(3, "u"), remove(4), remove(5)]
        )
        live = {2, 3, 4}
        out = folded.normalized(lambda obj_id: obj_id in live)
        assert out.added == {1: "new"}
        assert out.updated == {2: "dup", 3: "u"}
        assert out.removed == [4]
        assert out.ignored == 1  # remove(5): id 5 was never live

    def test_update_of_unknown_id_becomes_add(self):
        out = RoundOps.fold([update(9, "x")]).normalized(lambda _: False)
        assert out.added == {9: "x"} and not out.updated


class TestMicroBatcher:
    def test_count_budget(self):
        batcher = MicroBatcher(max_ops=3)
        batcher.extend(add(i, "x") for i in range(7))
        assert batcher.ready()
        assert [op.obj_id for op in batcher.next_batch()] == [0, 1, 2]
        assert [op.obj_id for op in batcher.next_batch()] == [3, 4, 5]
        assert not batcher.ready()
        assert [op.obj_id for op in batcher.drain()] == [6]
        assert len(batcher) == 0

    def test_age_budget_with_injected_clock(self):
        now = [0.0]
        batcher = MicroBatcher(max_ops=100, max_age=5.0, clock=lambda: now[0])
        batcher.add(add(1, "a"))
        assert not batcher.ready()
        now[0] = 6.0
        assert batcher.ready()
        assert len(batcher.next_batch()) == 1

    def test_leftovers_keep_their_age(self):
        # Popping a full batch must not reset the remainder's age clock.
        now = [0.0]
        batcher = MicroBatcher(max_ops=2, max_age=5.0, clock=lambda: now[0])
        batcher.extend([add(1, "a"), add(2, "b"), add(3, "c")])
        now[0] = 4.0
        assert len(batcher.next_batch()) == 2
        assert not batcher.ready()
        now[0] = 5.0  # op 3 arrived at t=0, so it is 5s old now
        assert batcher.ready()

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_ops=0)


class TestRouting:
    def test_stable_hash_is_deterministic_and_mixing(self):
        assert stable_hash(1) == stable_hash(1)
        buckets = {stable_hash(i) % 4 for i in range(100)}
        assert buckets == {0, 1, 2, 3}

    def test_partition_preserves_order_and_covers(self):
        router = HashRouter(3)
        ops = [add(i, "x").with_seq(i + 1) for i in range(20)]
        parts = router.partition(ops)
        recombined = sorted(
            (op for slice_ops in parts.values() for op in slice_ops),
            key=lambda op: op.seq,
        )
        assert recombined == ops
        for shard_index, slice_ops in parts.items():
            assert all(router.shard_of(op.obj_id) == shard_index for op in slice_ops)
            assert [op.seq for op in slice_ops] == sorted(op.seq for op in slice_ops)

    def test_global_cluster_id_roundtrip(self):
        assert parse_cluster_id(global_cluster_id(2, 17)) == (2, 17)
        with pytest.raises(ValueError):
            parse_cluster_id("bogus")

    def test_membership_table_rebuild(self):
        table = MembershipTable()
        table.add(1, 0)
        table.add(2, 1)
        table.discard(1)
        assert table.shard_of(2) == 1 and 1 not in table
        table.rebuild([[10, 11], [20]])
        assert table.live_ids() == {10, 11, 20}
        assert table.shard_of(20) == 1


class TestCheckpointManager:
    def test_save_load_prune(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        for seq in (10, 20, 30):
            manager.save({"applied_seq": seq, "blob": seq * 2})
        assert manager.list_seqs() == [20, 30]
        assert manager.load_latest()["blob"] == 60

    def test_corrupt_latest_falls_back(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=3)
        manager.save({"applied_seq": 1, "ok": True})
        manager.save({"applied_seq": 2, "ok": True})
        (tmp_path / "checkpoint-2.json").write_text('{"truncated')
        assert manager.load_latest()["applied_seq"] == 1

    def test_empty_directory(self, tmp_path):
        assert CheckpointManager(tmp_path).load_latest() is None


class TestMetrics:
    def test_latency_and_throughput(self):
        metrics = StreamInstruments(MetricsRegistry(), "primary", 2)
        metrics.shards[0].record_round("observe", n_ops=10, ignored=1, latency=0.5)
        metrics.shards[1].record_round("predict", n_ops=30, ignored=0, latency=0.5)
        assert metrics.shards[0].rounds_observed.value == 1
        assert metrics.shards[1].rounds_predicted.value == 1
        assert metrics.throughput_events_per_s() == pytest.approx(40.0)
        snapshot = metrics.snapshot()
        assert snapshot["shards"][0]["ops_ignored"] == 1
        assert snapshot["shards"][1]["round_latency"]["mean_s"] == pytest.approx(0.5)
        json.dumps(snapshot)  # must be JSON-compatible

    def test_capped_rounds_are_summed(self):
        from repro.core import RoundStats

        metrics = StreamInstruments(MetricsRegistry(), "primary", 1)
        shard = metrics.shards[0]
        for capped in (1, 0, 1):
            shard.record_round(
                "predict", n_ops=5, ignored=0, latency=0.1, round_stats=RoundStats(capped=capped)
            )
        assert metrics.snapshot()["shards"][0]["rounds_capped"] == 2

    def test_stats_and_metrics_read_the_same_instruments(self):
        from repro.core import RoundStats

        telemetry = Telemetry()
        metrics = StreamInstruments(telemetry.stats_registry(), "primary", 1)
        metrics.shards[0].record_round(
            "predict", n_ops=5, ignored=0, latency=0.1, round_stats=RoundStats(capped=1)
        )
        metrics.batches_applied.inc()
        families = telemetry.snapshot()["metrics"]
        assert families["engine_rounds_capped_total"]["replica=primary,shard=0"] == 1
        assert families["stream_batches_applied_total"]["replica=primary"] == 1
        text = telemetry.to_prometheus()
        assert (
            'repro_shard_rounds_total{phase="predict",replica="primary",shard="0"} 1'
            in text
        )

    def test_a_rebuilt_service_counts_from_zero(self):
        telemetry = Telemetry()
        first = StreamInstruments(telemetry.stats_registry(), "primary", 1)
        first.ops.inc(7)
        second = StreamInstruments(telemetry.stats_registry(), "primary", 1)
        assert second.snapshot()["ops_total"] == 0
        second.ops.inc(2)
        # /metrics exposes the live service's series, not the old one's.
        assert telemetry.snapshot()["metrics"]["stream_ops_total"] == {
            "replica=primary": 2
        }


# ---------------------------------------------------------------------------
# Payload codec fast paths, checked against the per-member code they replace
# ---------------------------------------------------------------------------
def sorted_encoded_reference(items) -> list:
    """Set-member order as the codec always defined it: each member's
    encoding, sorted by its canonical JSON text."""
    return sorted(
        (encode_payload(item) for item in items),
        key=lambda encoded: json.dumps(encoded, sort_keys=True),
    )


def decode_reference(data):
    """The member-by-member decoder: every item of every list decoded."""
    if isinstance(data, list):
        return [decode_reference(item) for item in data]
    if isinstance(data, dict):
        if "__ndarray__" in data:
            return np.asarray(data["__ndarray__"], dtype=data["dtype"])
        if "__frozenset__" in data:
            return frozenset(decode_reference(item) for item in data["__frozenset__"])
        if "__set__" in data:
            return {decode_reference(item) for item in data["__set__"]}
        if "__tuple__" in data:
            return tuple(decode_reference(item) for item in data["__tuple__"])
        if "__dict__" in data:
            return {k: decode_reference(v) for k, v in data["__dict__"].items()}
        raise ValueError(f"unknown payload marker in {sorted(data)!r}")
    return data


#: Pieces whose JSON spelling sorts differently from the raw string:
#: " " and "!" sort below the closing quote that ends a shorter string
#: sharing the prefix; '"', "\\", control characters and DEL are
#: escaped; non-ASCII and astral characters become ``\uXXXX`` (astral
#: ones as a surrogate pair), which sorts between "Z" and "a".
ADVERSARIAL_PIECES = [
    "", "a", "ab", "Z", "z", " ", "!", '"', "\\", "\x00", "\x01", "\x1f",
    "\n", "\t", "\x7f", "~", "\u00e9", "\u00df", "\u2028", "\u4e2d", "\U0001f600",
    "\U00010000", "\ud7ff", "\ue000", "\uffff",
]


def adversarial_sets(n_sets=200, seed=3):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_sets):
        size = int(rng.integers(1, 12))
        members = set()
        for _ in range(size):
            parts = rng.integers(len(ADVERSARIAL_PIECES), size=int(rng.integers(1, 4)))
            members.add("".join(ADVERSARIAL_PIECES[int(i)] for i in parts))
        out.append(frozenset(members))
    return out


class TestPayloadCodecFastPaths:
    def test_string_sets_sort_in_json_order(self):
        differs = 0
        for members in adversarial_sets():
            want = sorted_encoded_reference(members)
            assert _sorted_encoded(members) == want
            assert _sorted_encoded(set(members)) == want
            differs += want != sorted(members)
        # The sets really are adversarial: plain code-point order would
        # have written different bytes for many of them.
        assert differs > 50

    def test_prefix_and_escape_pairs(self):
        pairs = [
            ("a", "a "), ("a", "a!"), ("a", 'a"'), ("a", "a\\"), ("a", "a\x01"),
            ("Z", "\u00e9"), ("\u00e9", "a"), ("\uffff", "\U0001f600"), ("~", "\x7f"),
        ]
        for pair in pairs:
            assert _sorted_encoded(frozenset(pair)) == sorted_encoded_reference(pair)
        # JSON order is not code-point order for these.
        assert _sorted_encoded(frozenset({"a", "a "})) == ["a ", "a"]
        assert _sorted_encoded(frozenset({"\uffff", "\U0001f600"})) == [
            "\U0001f600", "\uffff",
        ]

    @pytest.mark.parametrize(
        "members",
        [
            frozenset({3, 1, 2, -7, 10}),
            frozenset({1.5, -0.25, 2.0, 1e300}),
            frozenset({True, False, None}),
            frozenset({1, "a", "b"}),  # mixed: ints and strings
            frozenset({None, "x", 2.5}),
            frozenset({(1, 2), (0, "a"), "a"}),  # tuples encode to markers
            frozenset({(0, 3), (0, 2), (1,)}),
            frozenset({frozenset({"q", "r"}), "q"}),
        ],
    )
    def test_other_sets_keep_the_json_keyed_sort(self, members):
        assert _sorted_encoded(members) == sorted_encoded_reference(members)
        assert decode_payload(encode_payload(members)) == members

    def test_only_non_string_sets_call_json_dumps(self, monkeypatch):
        calls = []
        real = json.dumps

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(events_module.json, "dumps", counting)
        events_module._sorted_encoded(frozenset({"b", "a", "a "}))
        assert calls == []
        events_module._sorted_encoded(frozenset({"b", 1, "a"}))
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "data",
        [
            {"__frozenset__": ["a", "b", "\u00e9", "\U0001f600"]},
            {"__set__": ["a", "b", "c"]},
            {"__frozenset__": [1, 2.5, True, None, "x", 0, False]},
            {"__set__": [1, 1.0, True, "1"]},
            {"__frozenset__": []},
            {"__set__": []},
            {"__frozenset__": [{"__tuple__": [1, 2]}, {"__tuple__": [0, "a"]}, "z"]},
            {"__set__": [{"__frozenset__": ["p", "q"]}, {"__tuple__": []}]},
            {"__tuple__": [{"__frozenset__": ["a", 1]}, [1, {"__set__": [2]}]]},
            [{"__frozenset__": ["a"]}, {"__set__": [3, 4]}, "s", [1, 2]],
        ],
    )
    def test_decode_matches_member_by_member_decoding(self, data):
        got = decode_payload(data)
        want = decode_reference(data)
        assert got == want
        assert type(got) is type(want)
        if isinstance(got, (set, frozenset)):
            assert sorted(map(repr, got)) == sorted(map(repr, want))

    @pytest.mark.parametrize(
        "data",
        [
            {"__frozenset__": ["a", [1, 2]]},
            {"__set__": [[1], [2]]},
            {"__frozenset__": [{"__ndarray__": [1.0], "dtype": "float64"}]},
            {"__set__": [{"__tuple__": [[1]]}]},
        ],
    )
    def test_unhashable_members_still_fail_like_before(self, data):
        with pytest.raises(TypeError):
            decode_reference(data)
        with pytest.raises(TypeError):
            decode_payload(data)

    def test_unknown_marker_inside_a_set_still_fails(self):
        with pytest.raises(ValueError):
            decode_payload({"__set__": [{"__bogus__": 1}]})


#: sha256 of the WAL that :func:`write_cora_wal` writes, recorded from the
#: codec that sorted set members by per-member ``json.dumps``.
CORA_WAL_SHA256 = "11214806b9fbb4c6f711a76e081c9510d6245e671d5bd0c512416946c4649f62"


def write_cora_wal(path) -> list[Operation]:
    """Append a fixed Cora op sequence (adds, updates, removes, flush
    markers; tenant, shard and ingest stamps) in chunks; returns the
    logged operations."""
    dataset = generate_cora(n_entities=30, n_duplicates=90, seed=11)
    records = dataset.records
    rng = np.random.default_rng(11)
    ops = []
    for index, record in enumerate(records):
        stamp = dict(shard=index % 3, ingest_ts=1_700_000_000.25 + index / 8)
        tenant = f"t{index % 4}"
        ops.append(add(record.id, record.payload).with_tenant(tenant))
        if index % 5 == 4:
            other = records[int(rng.integers(len(records)))]
            ops.append(update(record.id, other.payload).with_tenant(tenant))
        if index % 7 == 6:
            ops.append(remove(records[index - 3].id).with_tenant(tenant))
        if index % 11 == 10:
            ops.append(Operation("flush", 0, tenant=tenant))
        ops[-1] = Operation(
            ops[-1].kind, ops[-1].obj_id, ops[-1].payload, tenant=tenant, **stamp
        )
    # A few adversarial token sets ride along: JSON order != code-point order.
    for offset, members in enumerate(adversarial_sets(n_sets=12, seed=5)):
        ops.append(add(10_000 + offset, members).with_ingest_ts(1_700_000_100.5))
    ops.append(update(10_000, set(adversarial_sets(n_sets=1, seed=6)[0])))
    written = []
    with OperationLog(path) as log:
        for start in range(0, len(ops), 9):
            written += log.append(ops[start : start + 9])
    return written


def test_cora_wal_bytes_are_unchanged(tmp_path):
    path = tmp_path / "oplog.jsonl"
    written = write_cora_wal(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CORA_WAL_SHA256
    # And the log decodes back to the operations written.
    with OperationLog(path) as log:
        assert list(log.iter_from()) == written
