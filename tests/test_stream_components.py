"""Unit tests for the repro.stream building blocks (events, oplog,
batching, routing, checkpoints, metrics)."""

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
from repro.obs import MetricsRegistry, Telemetry
from repro.stream.events import decode_payload, encode_payload
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
