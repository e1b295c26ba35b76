"""Tests for `repro.obs`: metric primitives, tracing, the telemetry
bundle, and the end-to-end acceptance invariant — one fault-harness run
of a replicated `Service` produces a single merged snapshot covering
every pipeline stage with p50/p95/p99 on every latency series, plus a
loadable Chrome trace."""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.clustering.objectives import DBIndexObjective
from repro.core import DynamicC
from repro.data.generators import generate_access
from repro.data.workload import OperationMix, build_workload
from repro.faults import FaultInjector
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    Tracer,
    make_telemetry,
    write_metrics_json,
)
from repro.obs.tracing import NULL_SPAN
from repro.serve import Service
from repro.stream import ClusteringService, StreamConfig


# ---------------------------------------------------------------------------
# Metric primitives
# ---------------------------------------------------------------------------
class TestCounterGauge:
    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.snapshot() == 5
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(3.5)
        gauge.inc(1.5)
        gauge.dec(2.0)
        assert gauge.snapshot() == 3.0


class TestHistogram:
    @pytest.mark.parametrize("distribution", ("uniform", "lognormal", "bimodal"))
    def test_percentiles_track_sorted_sample_quantiles(self, distribution):
        """Streaming estimates stay within the log-bucket error bound.

        The documented contract: relative error ≤ ``growth - 1`` (5% at
        the default), except where the estimate is clamped to the exact
        observed min/max. Checked against nearest-rank quantiles of the
        fully sorted sample across distribution shapes latency series
        actually take.
        """
        rng = random.Random(hash(distribution) & 0xFFFF)
        if distribution == "uniform":
            samples = [rng.uniform(1e-4, 1e-1) for _ in range(3000)]
        elif distribution == "lognormal":
            samples = [rng.lognormvariate(-7, 1.5) for _ in range(3000)]
        else:  # fast mode + slow tail, the classic latency shape
            samples = [
                rng.uniform(1e-5, 3e-5) if rng.random() < 0.9
                else rng.uniform(1e-2, 5e-2)
                for _ in range(3000)
            ]
        histogram = Histogram()
        for value in samples:
            histogram.record(value)
        ordered = sorted(samples)
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
            estimate = histogram.percentile(q)
            # One-sided bucket rounding both ways plus nearest-rank
            # granularity: allow slightly over the nominal bound.
            assert estimate == pytest.approx(exact, rel=(histogram.growth - 1) * 1.5)

    def test_estimates_clamped_to_observed_range(self):
        histogram = Histogram()
        histogram.record(1.0)
        histogram.record(2.0)
        assert histogram.percentile(0.0) >= 1.0
        assert histogram.percentile(1.0) <= 2.0
        snap = histogram.snapshot()
        assert snap["min"] == 1.0 and snap["max"] == 2.0

    def test_aggregates_and_empty_behaviour(self):
        histogram = Histogram()
        assert histogram.percentile(0.5) == 0.0
        assert histogram.mean == 0.0
        assert histogram.snapshot()["min"] == 0.0
        for value in (0.1, 0.2, 0.3):
            histogram.record(value)
        snap = histogram.snapshot()
        assert snap["count"] == 3
        assert snap["total"] == pytest.approx(0.6)
        assert snap["mean"] == pytest.approx(0.2)
        assert snap["last"] == 0.3
        assert set(snap) >= {"p50", "p95", "p99"}

    def test_subfloor_values_share_the_underflow_bucket(self):
        histogram = Histogram(floor=1e-9)
        histogram.record(0.0)
        histogram.record(1e-12)
        assert histogram.percentile(0.5) <= 1e-9
        assert histogram.count == 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="growth"):
            Histogram(growth=1.0)
        with pytest.raises(ValueError, match="quantile"):
            Histogram().percentile(1.5)


class TestLabelsAndRegistry:
    def test_family_aggregates_by_label_values(self):
        family = MetricFamily("ops", "counter", ("kind", "shard"))
        family.labels(kind="add", shard=0).inc(3)
        family.labels(shard=0, kind="add").inc(2)  # kwarg order irrelevant
        family.labels(kind="add", shard=1).inc()
        snap = family.snapshot()
        assert snap == {"kind=add,shard=0": 5, "kind=add,shard=1": 1}

    def test_family_rejects_wrong_label_set(self):
        family = MetricFamily("ops", "counter", ("kind",))
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(knid="typo")

    def test_registry_get_or_create_and_shape_check(self):
        registry = MetricsRegistry()
        assert registry.counter("events") is registry.counter("events")
        with pytest.raises(ValueError, match="different shape"):
            registry.gauge("events")
        with pytest.raises(ValueError, match="different shape"):
            registry.counter("events", labels=("kind",))

    def test_child_registries_nest_in_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(7)
        registry.child("oplog").gauge("bytes").set(128)
        snap = registry.snapshot()
        assert snap["events"] == 7
        assert snap["oplog"]["bytes"] == 128
        assert registry.child("oplog") is registry.child("oplog")

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(2)
        family = registry.histogram("latency", labels=("op",))
        family.labels(op="apply").record(0.25)
        registry.child("shipper").counter("segments").inc()
        text = registry.to_prometheus(prefix="repro")
        assert "# TYPE repro_events counter" in text
        assert "repro_events 2" in text
        assert "# TYPE repro_latency summary" in text
        assert 'repro_latency{op="apply",quantile="0.5"}' in text
        assert 'repro_latency_count{op="apply"} 1' in text
        assert "repro_shipper_segments 1" in text

    def test_artifact_writers(self, tmp_path):
        snapshot = {"events": 3, "latency": {"p50": 0.1}}
        write_metrics_json(tmp_path / "m.json", snapshot)
        assert json.loads((tmp_path / "m.json").read_text()) == snapshot


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------
def make_tracer(**kwargs) -> Tracer:
    """A tracer on a deterministic fake clock (1ms per reading)."""
    ticks = iter(range(10_000))
    return Tracer(clock=lambda: next(ticks) * 1e-3, **kwargs)


class TestTracer:
    def test_span_nesting_depth_and_parent(self):
        tracer = make_tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                with tracer.span("leaf"):
                    pass
        by_name = {span.name: span for span in tracer.spans}
        assert by_name["outer"].depth == 0 and by_name["outer"].parent is None
        assert by_name["inner"].depth == 1 and by_name["inner"].parent == "outer"
        assert by_name["leaf"].depth == 2 and by_name["leaf"].parent == "inner"
        # Completion order is innermost-first; starts are outermost-first.
        assert [span.name for span in tracer.spans] == ["leaf", "inner", "outer"]
        assert tracer.snapshot()["open_spans"] == []

    def test_exception_still_records_and_unwinds(self):
        tracer = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert [span.name for span in tracer.spans] == ["inner", "outer"]
        assert tracer.snapshot()["open_spans"] == []

    def test_ring_buffer_bounds_memory_and_counts_drops(self):
        tracer = make_tracer(max_spans=4)
        for index in range(10):
            with tracer.span("op", index=index):
                pass
        assert len(tracer.spans) == 4
        assert tracer.spans_recorded == 10
        assert tracer.spans_dropped == 6
        recent = tracer.recent(2)
        assert [span["args"]["index"] for span in recent] == [8, 9]

    def test_chrome_trace_export(self, tmp_path):
        tracer = make_tracer()
        with tracer.span("stream.ingest", ops=5):
            with tracer.span("shard.apply", shard=0, component="replica-1"):
                pass
        with tracer.span("ship.publish", kind="segment"):
            pass
        tracer.write_chrome_trace(tmp_path / "trace.json")
        trace = json.loads((tmp_path / "trace.json").read_text())
        events = trace["traceEvents"]
        # Sorted by start time (not completion order), all complete events.
        assert [e["name"] for e in events] == [
            "stream.ingest", "shard.apply", "ship.publish",
        ]
        assert all(e["ph"] == "X" for e in events)
        starts = [e["ts"] for e in events]
        assert starts == sorted(starts)
        # cat = name prefix; component label routes to the tid row.
        assert [e["cat"] for e in events] == ["stream", "shard", "ship"]
        assert [e["tid"] for e in events] == ["service", "replica-1", "service"]
        assert "component" not in events[1]["args"]
        assert events[1]["args"]["shard"] == 0
        # µs since the tracer epoch; the fake clock ticks 1ms per reading.
        ingest = events[0]
        assert ingest["ts"] >= 0 and ingest["dur"] > 0
        assert ingest["dur"] == pytest.approx(
            ingest["dur"] // 1000 * 1000, abs=1
        )  # whole-ms fake clock → whole-µs multiple of 1000


# ---------------------------------------------------------------------------
# Telemetry bundle and the null recorder
# ---------------------------------------------------------------------------
class TestTelemetry:
    def test_span_feeds_the_latency_family(self):
        telemetry = Telemetry()
        with telemetry.span("stream.ingest"):
            pass
        with telemetry.span("stream.ingest"):
            pass
        with telemetry.span("shard.apply", shard=1):
            pass
        families = telemetry.snapshot()["metrics"]["span_seconds"]
        assert families["name=stream.ingest"]["count"] == 2
        assert families["name=shard.apply"]["count"] == 1
        assert set(families["name=shard.apply"]) >= {"p50", "p95", "p99"}

    def test_snapshot_shape_and_prometheus(self):
        telemetry = Telemetry()
        telemetry.counter("events").inc(3)
        with telemetry.span("checkpoint.save"):
            pass
        snap = telemetry.snapshot()
        assert snap["enabled"] is True
        assert snap["metrics"]["events"] == 3
        assert snap["trace"]["spans_recorded"] == 1
        json.dumps(snap)  # the whole bundle is JSON-compatible
        assert "repro_events 3" in telemetry.to_prometheus()

    def test_component_registries(self):
        telemetry = Telemetry()
        telemetry.component("oplog").counter("appends").inc()
        assert telemetry.snapshot()["metrics"]["oplog"]["appends"] == 1

    def test_make_telemetry_settings(self):
        assert make_telemetry(None) is NULL_TELEMETRY
        assert make_telemetry(False) is NULL_TELEMETRY
        assert make_telemetry("off") is NULL_TELEMETRY
        assert isinstance(make_telemetry(True), Telemetry)
        assert isinstance(make_telemetry("on"), Telemetry)
        shared = Telemetry()
        assert make_telemetry(shared) is shared
        assert make_telemetry(NULL_TELEMETRY) is NULL_TELEMETRY
        with pytest.raises(ValueError, match="telemetry"):
            make_telemetry("loud")

    def test_null_telemetry_is_inert(self, tmp_path):
        null = NULL_TELEMETRY
        assert isinstance(null, NullTelemetry) and not null.enabled
        assert null.span("anything", label=1) is NULL_SPAN
        with null.span("anything"):
            pass
        null.counter("c").inc()
        null.gauge("g", labels=("a",)).labels(a=1).set(2)
        null.histogram("h").record(0.5)
        null.component("oplog").counter("x").inc()
        assert null.snapshot() == {"enabled": False}
        assert null.to_prometheus() == ""
        null.write_chrome_trace(tmp_path / "trace.json")
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert trace["traceEvents"] == []


# ---------------------------------------------------------------------------
# Service integration
# ---------------------------------------------------------------------------
def access_events(seed=3):
    dataset = generate_access(n_profiles=6, n_records=240, seed=seed)
    workload = build_workload(
        dataset,
        initial_count=80,
        n_snapshots=5,
        mixes=OperationMix(add=0.12, remove=0.03, update=0.03),
        seed=2,
    )

    def factory():
        return DynamicC(dataset.graph(), DBIndexObjective(), seed=0)

    return factory, workload.event_stream()


class TestServiceSnapshots:
    @pytest.mark.parametrize("telemetry", (None, "on"))
    def test_stats_snapshot_is_json_dumpable(self, telemetry):
        factory, events = access_events()
        service = ClusteringService(
            factory,
            StreamConfig(
                n_shards=2, batch_max_ops=32, train_rounds=2, telemetry=telemetry
            ),
        )
        service.ingest(events[:200])
        service.flush()
        stats = service.stats()
        json.dumps(stats)  # the acceptance smoke: no raw objects leak out
        assert stats["telemetry"]["enabled"] is (telemetry == "on")
        if telemetry == "on":
            families = stats["telemetry"]["metrics"]["span_seconds"]
            assert "name=stream.ingest" in families
        else:
            assert service.telemetry is NULL_TELEMETRY

    def test_shared_instance_survives_recovery(self, tmp_path):
        factory, events = access_events()
        telemetry = Telemetry()
        config = StreamConfig(
            n_shards=2,
            batch_max_ops=32,
            train_rounds=2,
            oplog_path=tmp_path / "oplog.jsonl",
            checkpoint_dir=tmp_path / "checkpoints",
            telemetry=telemetry,
        )
        service = ClusteringService(factory, config)
        service.ingest(events[:150])
        service.flush()
        service.checkpoint()
        service.close()
        recovered = ClusteringService.recover(factory, config)
        assert recovered.telemetry is telemetry
        families = telemetry.snapshot()["metrics"]["span_seconds"]
        assert "name=checkpoint.save" in families
        assert "name=checkpoint.load" in families
        recovered.close()


class TestEndToEndAcceptance:
    def test_fault_harness_run_yields_one_merged_snapshot(self, tmp_path):
        """The PR's acceptance invariant, verbatim.

        One replicated Service run under the fault harness (dry run —
        intercepting every durability boundary without crashing) must
        produce a *single* merged ``stats()`` snapshot covering stream,
        engine round phases, oplog fsync, checkpoint, shipper and
        replica lag — with p50/p95/p99 on every latency series — plus a
        Chrome trace that loads as JSON.
        """
        factory, events = access_events()
        telemetry = Telemetry()
        with FaultInjector(obs=telemetry) as injector:
            service = Service.open(
                engine_factory=factory,
                n_shards=2,
                batch_max_ops=32,
                train_rounds=2,
                root_dir=tmp_path / "state",
                fsync=True,
                telemetry=telemetry,
                max_segment_ops=64,
            )
            tenant = service.tenant("t")
            replica = tenant.add_replica(name="replica-0")
            tenant.add_replica(name="replica-1")
            half = len(events) // 2
            tenant.ingest(events[:half])
            service.sync()
            tenant.checkpoint()
            tenant.ingest(events[half:])
            tenant.flush()
            service.sync()
            lag = replica.lag()
            merged = service.stats()
            service.close()
        assert len(injector) > 0  # the harness really intercepted ops

        # One snapshot, from the one shared recorder: tenant pools,
        # shipper and replica all report the same telemetry object.
        assert merged["telemetry"] is not None
        families = merged["telemetry"]["metrics"]["span_seconds"]
        span_names = {key.split("=", 1)[1] for key in families}
        assert {
            "serve.ingest",           # ingest → batch → apply
            "stream.batch.apply",
            "shard.apply",
            "engine.train",           # round phases
            "engine.maintain",
            "oplog.append",           # durability
            "oplog.fsync",
            "checkpoint.save",
            "ship.publish",           # replication
            "replica.poll",
            "replica.segment.apply",
            "replica.bootstrap",
        } <= span_names
        # Every latency series carries streaming percentiles.
        for key, series in families.items():
            assert series["count"] >= 1, key
            assert {"p50", "p95", "p99"} <= set(series), key
            assert series["p50"] <= series["p95"] <= series["p99"], key

        # Ingest → queryable: one series per node (tenant pool, replicas).
        visibility = merged["telemetry"]["metrics"]["e2e_visibility_seconds"]
        nodes = {"serve:t", "replica-0", "replica-1"}
        assert set(visibility) == {f"replica={node}" for node in nodes}
        assert all(series["count"] > 0 for series in visibility.values())

        # The fault harness's own counters landed in the same snapshot.
        ops = merged["telemetry"]["metrics"]["faultinject_ops_total"]
        assert ops.get("kind=fsync", 0) > 0
        assert ops.get("kind=replace", 0) > 0

        # Replica lag includes the monotonic freshness gauge and the
        # clamped staleness, and the whole thing serialises.
        assert lag["seq_delta"] == 0
        assert lag["applied_age_s"] >= 0.0
        assert lag["staleness_s"] >= 0.0
        json.dumps(merged)

        # And the trace is a loadable Chrome trace covering both rows.
        telemetry.write_chrome_trace(tmp_path / "trace.json")
        trace = json.loads((tmp_path / "trace.json").read_text())
        tids = {event["tid"] for event in trace["traceEvents"]}
        assert {"service", "replica-0"} <= tids
        names = {event["name"] for event in trace["traceEvents"]}
        assert "serve.ingest" in names and "replica.poll" in names


# ---------------------------------------------------------------------------
# Prometheus exposition correctness (escaping, HELP/TYPE pairing)
# ---------------------------------------------------------------------------
HOSTILE_LABELS = [
    'plain',
    'back\\slash',
    'quo"te',
    'new\nline',
    'all\\three" at\nonce',
]


def parse_prometheus(text: str) -> dict:
    """A deliberately strict parser for the exposition subset we emit.

    Returns {full_metric_name: {frozenset(label pairs): value}} and
    asserts the structural rules a real Prometheus scraper enforces:
    every sample belongs to a # TYPE'd (and # HELP'd) family, label
    values are correctly quoted/escaped, and HELP precedes TYPE.
    """
    samples: dict = {}
    helped: set[str] = set()
    typed: set[str] = set()
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            name = line.split(" ", 3)[2]
            assert name not in typed, f"HELP after TYPE for {name}"
            helped.add(name)
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "summary", "untyped"), line
            assert name in helped, f"TYPE without HELP for {name}"
            typed.add(name)
            continue
        assert not line.startswith("#"), f"unknown comment {line!r}"
        body, _, value = line.rpartition(" ")
        float(value)  # must parse
        if "{" in body:
            name, _, label_text = body.partition("{")
            assert label_text.endswith("}"), line
            labels = {}
            rest = label_text[:-1]
            while rest:
                key, _, rest = rest.partition('="')
                # Walk the quoted value, honouring backslash escapes.
                out, index = [], 0
                while index < len(rest):
                    char = rest[index]
                    if char == "\\":
                        escape = rest[index + 1]
                        assert escape in ('\\', '"', 'n'), f"bad escape in {line!r}"
                        out.append({"\\": "\\", '"': '"', "n": "\n"}[escape])
                        index += 2
                    elif char == '"':
                        break
                    else:
                        out.append(char)
                        index += 1
                else:
                    raise AssertionError(f"unterminated label value in {line!r}")
                labels[key] = "".join(out)
                rest = rest[index + 1 :].lstrip(",")
            key = frozenset(labels.items())
        else:
            name, key = body, frozenset()
        base = name
        for suffix in ("_count", "_sum"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
        assert base in typed, f"sample {name} outside any TYPE'd family"
        samples.setdefault(name, {})[key] = float(value)
    return samples


class TestExpositionCorrectness:
    def test_hostile_label_values_round_trip(self):
        registry = MetricsRegistry()
        family = registry.counter("ops_total", labels=("kind",), help="ops by kind")
        for index, hostile in enumerate(HOSTILE_LABELS):
            family.labels(kind=hostile).inc(index + 1)
        samples = parse_prometheus(registry.to_prometheus(prefix="repro"))
        decoded = {
            dict(key)["kind"]: value
            for key, value in samples["repro_ops_total"].items()
        }
        assert decoded == {
            hostile: float(index + 1)
            for index, hostile in enumerate(HOSTILE_LABELS)
        }

    def test_help_emitted_and_precedes_type_everywhere(self):
        registry = MetricsRegistry()
        registry.counter("events", help="ingested events").inc()
        registry.gauge("depth").set(3)  # no help given: default text
        registry.histogram("lat", labels=("op",), help="latency").labels(
            op="x"
        ).record(0.1)
        registry.child("oplog").counter("appends", help="appends").inc()
        text = registry.to_prometheus(prefix="repro")
        parse_prometheus(text)  # asserts HELP-before-TYPE and full pairing
        assert "# HELP repro_events ingested events" in text
        assert "# HELP repro_depth depth" in text
        assert "# HELP repro_oplog_appends appends" in text

    def test_help_text_newlines_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd", help="line one\nline two \\ slash").inc()
        text = registry.to_prometheus(prefix="repro")
        help_lines = [l for l in text.splitlines() if l.startswith("# HELP repro_odd")]
        assert help_lines == ["# HELP repro_odd line one\\nline two \\\\ slash"]

    def test_live_service_scrape_parses_strictly(self, tmp_path):
        factory, events = access_events()
        service = ClusteringService(
            factory,
            StreamConfig(
                n_shards=2,
                batch_max_ops=32,
                train_rounds=2,
                oplog_path=tmp_path / "oplog.jsonl",
                telemetry="on",
            ),
        )
        service.ingest(events[:120])
        service.flush()
        samples = parse_prometheus(service.telemetry.to_prometheus())
        assert samples["repro_span_seconds_count"], "span histograms missing"
        service.close()


# ---------------------------------------------------------------------------
# Bounded buffers account their drops (satellite: explicit drop counters)
# ---------------------------------------------------------------------------
class TestDropAccounting:
    def test_trace_ring_eviction_counts_into_obs_dropped_spans_total(self):
        telemetry = Telemetry(max_spans=4)
        for index in range(10):
            with telemetry.span(f"s{index}"):
                pass
        snap = telemetry.snapshot()
        assert snap["trace"]["spans_recorded"] == 10
        assert snap["trace"]["spans_dropped"] == 6
        assert snap["metrics"]["obs_dropped_spans_total"] == 6
        assert "repro_obs_dropped_spans_total 6" in telemetry.to_prometheus()

    def test_no_drops_below_capacity(self):
        telemetry = Telemetry(max_spans=16)
        for _ in range(16):
            with telemetry.span("s"):
                pass
        assert telemetry.snapshot()["metrics"]["obs_dropped_spans_total"] == 0

    def test_log_rate_limit_drops_counted_and_reported_in_band(self):
        import io

        from repro.obs import StructuredLogger
        from repro.ratelimit import TokenBucket

        ticks = iter([i * 0.001 for i in range(1000)])  # effectively frozen clock
        telemetry = Telemetry()
        stream = io.StringIO()
        logger = StructuredLogger(
            "comp",
            stream,
            telemetry=telemetry,
            limiter=TokenBucket(rate=1.0, burst=3, clock=lambda: next(ticks)),
        )
        results = [logger.info("e", i=i) for i in range(10)]
        assert results.count(True) == 3 and results.count(False) == 7
        assert logger.lines_dropped == 7
        counters = telemetry.snapshot()["metrics"]["obs_dropped_logs_total"]
        assert counters == {"component=comp": 7}
        # The drop count surfaces in-band on the next emitted line.
        logger.error("after")  # error bypasses the limiter
        last = json.loads(stream.getvalue().splitlines()[-1])
        assert last["dropped_since_last"] == 7


# ---------------------------------------------------------------------------
# Structured logging
# ---------------------------------------------------------------------------
class TestStructuredLogging:
    def make_logger(self, **kwargs):
        import io

        import math

        from repro.obs import StructuredLogger
        from repro.ratelimit import TokenBucket

        stream = io.StringIO()
        kwargs.setdefault("limiter", TokenBucket(rate=1.0, burst=math.inf))  # no limit
        return StructuredLogger("stream.primary", stream, **kwargs), stream

    def test_one_json_object_per_line_with_schema(self):
        logger, stream = self.make_logger()
        logger.info("batch_applied", seq=42, shard=1)
        logger.warning("slow", elapsed=1.5)
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert len(lines) == 2
        assert lines[0]["event"] == "batch_applied"
        assert lines[0]["component"] == "stream.primary"
        assert lines[0]["level"] == "info"
        assert lines[0]["seq"] == 42 and lines[0]["shard"] == 1
        assert lines[0]["ts"] > 0 and lines[0]["elapsed_s"] >= 0
        assert lines[1]["level"] == "warning"

    def test_span_correlation_ids_attached_inside_spans_only(self):
        telemetry = Telemetry()
        logger, stream = self.make_logger(telemetry=telemetry)
        logger.info("outside")
        with telemetry.span("work"):
            logger.info("inside")
        outside, inside = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        assert "trace" not in outside and "span" not in outside
        assert inside["trace"] == telemetry.trace_id
        assert inside["span"] == "work"
        assert inside["span_id"] >= 1
        # The logged span_id matches the recorded span's id.
        assert inside["span_id"] in {s.span_id for s in telemetry.tracer.spans}

    def test_elapsed_uses_monotonic_domain(self):
        # A wall clock jumping backwards must not produce negative elapsed.
        wall = iter([1000.0, 900.0, 800.0])
        mono = iter([5.0, 6.0, 7.0])
        logger, stream = self.make_logger(
            clock=lambda: next(wall), mono=lambda: next(mono)
        )
        logger.info("a")
        logger.info("b")
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [line["elapsed_s"] for line in lines] == [1.0, 2.0]

    def test_disabled_and_broken_streams_never_raise(self):
        from repro.obs import NULL_LOGGER, StructuredLogger

        assert NULL_LOGGER.info("anything", x=1) is False
        logger, stream = self.make_logger()
        stream.close()
        assert logger.info("onto closed stream") is False
        assert logger.lines_dropped == 1

    def test_non_json_fields_are_stringified(self):
        logger, stream = self.make_logger()
        logger.info("odd", path=__import__("pathlib").Path("/tmp/x"), ok=[1, 2])
        line = json.loads(stream.getvalue())
        assert line["path"] == "/tmp/x"
        assert line["ok"] == [1, 2]

    def test_child_shares_stream_and_limiter(self):
        from repro.ratelimit import TokenBucket

        logger, stream = self.make_logger(limiter=TokenBucket(rate=1.0, burst=2, clock=lambda: 0.0))
        child = logger.child("stream.replica-0")
        assert logger.info("a") and child.info("b")
        assert child.info("c") is False  # shared bucket exhausted
        components = [
            json.loads(line)["component"] for line in stream.getvalue().splitlines()
        ]
        assert components == ["stream.primary", "stream.replica-0"]

    def test_service_emits_logs_when_configured(self, tmp_path):
        import io

        stream = io.StringIO()
        factory, events = access_events()
        service = ClusteringService(
            factory,
            StreamConfig(
                n_shards=2,
                batch_max_ops=32,
                train_rounds=2,
                oplog_path=tmp_path / "oplog.jsonl",
                checkpoint_dir=tmp_path / "ckpt",
                log_stream=stream,
            ),
        )
        service.ingest(events[:80])
        service.checkpoint()
        service.close()
        events = [json.loads(line)["event"] for line in stream.getvalue().splitlines()]
        assert events[0] == "service_started"
        assert "checkpoint_saved" in events
        assert events[-1] == "service_closing"
        components = {
            json.loads(line)["component"] for line in stream.getvalue().splitlines()
        }
        assert components == {"stream.primary"}
