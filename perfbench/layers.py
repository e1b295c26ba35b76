"""Per-layer tracing: timing and counting wrappers around public functions.

The traced run installs these wrappers from the benchmark's own files;
nothing under ``src/`` is modified and untimed runs carry no wrappers.
Each wrapper is patched where callers look the function up: methods on
their class, and module-level functions in the module that imported
them by name (``repro.core.dynamicc`` imports ``merge_algorithm`` and
``split_algorithm`` that way).

Layers are named after the modules under ``src/repro``. Every per-layer
metric names the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import functools

from .measure import SelfTimer

_MISSING = object()

#: (metric, unit, [end-to-end metric @ workload it should move]).
LAYER_METRICS: list[tuple[str, str, list[str]]] = [
    ("similarity.graph.busy_s", "s", ["round_ms_p50@paper-dbindex", "ops_per_s@paper-dbindex"]),
    ("similarity.graph.objects", "count", ["round_ms_p50@paper-dbindex"]),
    ("similarity.pairs_scored", "count", ["round_ms_p50@paper-dbindex", "ops_per_s@paper-dbindex"]),
    ("similarity.edge_yield", "ratio", ["round_ms_p50@paper-dbindex"]),
    ("clustering.hillclimb.busy_s", "s", ["setup_s@paper-dbindex", "write_ms_p99@serve-resident"]),
    ("clustering.hillclimb.calls", "count", ["setup_s@paper-dbindex"]),
    ("clustering.dbindex.delta_calls", "count", ["recluster_ms_p50@paper-dbindex", "write_ms_p99@serve-resident"]),
    ("clustering.dbindex.delta_busy_s", "s", ["recluster_ms_p50@paper-dbindex", "write_ms_p99@serve-resident"]),
    ("core.recluster.busy_s", "s", ["recluster_ms_p50@paper-dbindex"]),
    ("core.recluster.rounds", "count", ["recluster_ms_p50@paper-dbindex"]),
    ("core.ingest.busy_s", "s", ["write_ms_p50@paper-dbindex"]),
    ("core.merge.busy_s", "s", ["recluster_ms_p50@paper-dbindex"]),
    ("core.merge.accept_ratio", "ratio", ["recluster_ms_p50@paper-dbindex"]),
    ("core.split.busy_s", "s", ["recluster_ms_p50@paper-dbindex"]),
    ("core.verifications", "count", ["recluster_ms_p50@paper-dbindex"]),
    ("core.observe.busy_s", "s", ["setup_s@paper-dbindex"]),
    ("core.train.busy_s", "s", ["setup_s@paper-dbindex"]),
    ("ml.fit.busy_s", "s", ["setup_s@paper-dbindex"]),
    ("ml.predict.calls", "count", ["recluster_ms_p50@paper-dbindex"]),
    ("ml.predict.busy_s", "s", ["recluster_ms_p50@paper-dbindex"]),
    ("stream.shard_apply.busy_s", "s", ["round_ms_p50@serve-resident"]),
    ("stream.shard_apply.rounds", "count", ["round_ms_p50@serve-resident"]),
    ("stream.oplog.append.busy_s", "s", ["write_ms_p50@serve-resident"]),
    ("stream.oplog.bytes_per_op", "B/op", ["write_ms_p50@serve-resident"]),
    # Each tenant's first activation (during set-up) recovers from an
    # empty checkpoint directory and scans the shared log for its ops.
    ("stream.oplog.replay.busy_s", "s", ["setup_s@serve-resident"]),
    ("stream.oplog.replay.ops_read", "count", ["setup_s@serve-resident"]),
    ("stream.oplog.replay.useful_ratio", "ratio", ["setup_s@serve-resident"]),
    ("stream.checkpoint.load.busy_s", "s", ["setup_s@serve-resident"]),
    ("serve.ingest.self_s", "s", ["write_ms_p50@serve-resident", "ops_per_s@serve-resident"]),
    ("serve.activate.busy_s", "s", ["setup_s@serve-resident"]),
    ("serve.activations", "count", ["setup_s@serve-resident"]),
    ("replica.ship.busy_s", "s", ["replica.visible_ms_p50@serve-resident", "ops_per_s@serve-resident"]),
    ("replica.apply.busy_s", "s", ["replica.visible_ms_p50@serve-resident", "ops_per_s@serve-resident"]),
    ("replica.segments", "count", ["replica.visible_ms_p50@serve-resident"]),
    # Replica freshness is reported here, not end to end, because only
    # serve-resident has a replica and end-to-end metrics must exist on
    # every workload.
    ("replica.visible_ms_p50", "ms", []),
    ("replica.visible_ms_p90", "ms", []),
    ("trace.overhead", "ratio", []),
    ("trace.unattributed_s", "s", []),
    ("trace.attributed_share", "ratio", []),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class LayerProbe:
    """Installs the wrappers on :mod:`repro` and folds them into metrics."""

    def __init__(self, timer: SelfTimer, similarity_thresholds: dict) -> None:
        #: ``{SimilarityFunction subclass: store threshold}`` of the
        #: datasets in play, so a scored pair can be classed kept/dropped.
        self.timer = timer
        self.similarity_thresholds = similarity_thresholds
        self._undo: list[tuple] = []
        self._activating: list[str] = []

    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, before = self._undo.pop()
            if before is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, before)

    def _span(self, name: str, after=None):
        """Wrapper factory: time the call as span ``name``.

        ``after(args, result, outermost)`` runs inside the span to count
        work (so its cost lands in this layer, not the caller's).
        """
        timer = self.timer

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not timer.enabled:
                    return fn(*args, **kwargs)
                outermost = not timer.inside(name)
                timer.enter(name)
                try:
                    result = fn(*args, **kwargs)
                    if after is not None:
                        after(args, result, outermost)
                    return result
                finally:
                    timer.leave()

            return wrapper

        return make

    def _counter(self, name: str):
        timer = self.timer

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                timer.count(name)
                return fn(*args, **kwargs)

            return wrapper

        return make

    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro.clustering.batch.hill_climbing import HillClimbing
        from repro.clustering.objectives.dbindex import DBIndexObjective
        from repro.core import dynamicc as dynamicc_module
        from repro.core.dynamicc import DynamicC
        from repro.core.model import DynamicCModel
        from repro.replica.replica import ReadReplica
        from repro.replica.shipper import LogShipper
        from repro.serve.tenant import TenantManager
        from repro.similarity.graph import SimilarityGraph
        from repro.stream.checkpoint import CheckpointManager
        from repro.stream.oplog import OperationLog
        from repro.stream.shard import StreamShard

        timer = self.timer

        # -- similarity ---------------------------------------------------
        def objects(amount_of):
            def after(args, result, outermost):
                if outermost:
                    timer.count("similarity.graph.objects", amount_of(args))

            return after

        one = objects(lambda args: 1)
        self._patch(SimilarityGraph, "add_object", self._span("similarity.graph", one))
        self._patch(
            SimilarityGraph,
            "add_objects",
            self._span("similarity.graph", objects(lambda args: len(args[1]))),
        )
        self._patch(SimilarityGraph, "update_object", self._span("similarity.graph", one))
        self._patch(SimilarityGraph, "remove_object", self._span("similarity.graph", one))
        for cls, threshold in self.similarity_thresholds.items():
            self._patch(cls, "similarity", self._pair_counter(threshold))

        # -- clustering ---------------------------------------------------
        self._patch(HillClimbing, "cluster", self._span("clustering.hillclimb"))
        for attr in ("delta_merge", "delta_merge_group", "delta_split", "delta_move"):
            self._patch(DBIndexObjective, attr, self._span("clustering.dbindex.delta"))

        # -- core -----------------------------------------------------------
        def round_stats(args, result, outermost):
            stats = args[0].last_round_stats
            timer.count("core.merge.applied", stats.merges_applied)
            timer.count("core.merge.candidates", stats.candidates_scored)
            timer.count("core.verifications", stats.verifications)

        self._patch(DynamicC, "recluster", self._span("core.recluster", round_stats))
        self._patch(DynamicC, "ingest", self._span("core.ingest"))
        self._patch(DynamicC, "observe_round", self._span("core.observe"))
        self._patch(DynamicC, "train", self._span("core.train"))
        self._patch(dynamicc_module, "merge_algorithm", self._span("core.merge"))
        self._patch(dynamicc_module, "split_algorithm", self._span("core.split"))

        # -- ml -------------------------------------------------------------
        self._patch(DynamicCModel, "fit", self._span("ml.fit"))
        for attr in (
            "merge_probabilities",
            "split_probabilities",
            "merge_probability",
            "split_probability",
        ):
            self._patch(DynamicCModel, attr, self._span("ml.predict"))

        # -- stream ---------------------------------------------------------
        def shard_round(args, result, outermost):
            if result[0] != "skip":
                timer.count("stream.shard_apply.rounds")

        def appended(args, result, outermost):
            timer.count("stream.oplog.append.ops", len(result))

        self._patch(StreamShard, "apply", self._span("stream.shard_apply", shard_round))
        self._patch(OperationLog, "append", self._span("stream.oplog.append", appended))
        self._patch(OperationLog, "iter_from", self._replay_reader)
        self._patch(CheckpointManager, "load_latest", self._span("stream.checkpoint.load"))

        # -- serve ----------------------------------------------------------
        self._patch(TenantManager, "ingest", self._span("serve.ingest"))
        self._patch(TenantManager, "activate", self._activation)

        # -- replica --------------------------------------------------------
        self._patch(TenantManager, "add_replica", self._span("replica.bootstrap"))
        self._patch(LogShipper, "ship", self._span("replica.ship"))
        self._patch(ReadReplica, "poll", self._span("replica.apply"))
        self._patch(ReadReplica, "apply_segment", self._counter("replica.segments"))

    # ------------------------------------------------------------------
    def _pair_counter(self, threshold: float):
        timer = self.timer

        def make(fn):
            @functools.wraps(fn)
            def wrapper(self_, a, b):
                sim = fn(self_, a, b)
                if timer.enabled and timer.inside("similarity.graph"):
                    timer.count("similarity.pairs_scored")
                    if sim >= threshold and sim > 0.0:
                        timer.count("similarity.edges_kept")
                return sim

            return wrapper

        return make

    def _activation(self, fn):
        """``TenantManager.activate``: span, miss count, replay attribution."""
        timer = self.timer
        activating = self._activating

        @functools.wraps(fn)
        def wrapper(manager, name):
            if not timer.enabled:
                return fn(manager, name)
            if not manager.is_resident(name):
                timer.count("serve.activations")
            activating.append(name)
            timer.enter("serve.activate")
            try:
                return fn(manager, name)
            finally:
                timer.leave()
                activating.pop()

        return wrapper

    def _replay_reader(self, fn):
        """``OperationLog.iter_from`` read during an activation = replay.

        Each step of the generator is its own ``stream.oplog.replay``
        span; reads outside an activation (the log shipper) stay in the
        caller's span.
        """
        timer = self.timer
        activating = self._activating

        @functools.wraps(fn)
        def wrapper(log, after_seq=0):
            if not (timer.enabled and activating):
                yield from fn(log, after_seq)
                return
            tenant = activating[-1]
            inner = fn(log, after_seq)
            while True:
                timer.enter("stream.oplog.replay")
                try:
                    operation = next(inner)
                except StopIteration:
                    return
                finally:
                    timer.leave()
                timer.count("stream.oplog.replay.ops_read")
                if operation.tenant == tenant:
                    timer.count("stream.oplog.replay.ops_useful")
                yield operation

        return wrapper

    # ------------------------------------------------------------------
    def metrics(self, passes: int, wall_s: float, overhead: float, extra: dict) -> dict:
        """Per-pass layer metrics from the timer (``wall_s`` is per pass)."""
        t = self.timer
        busy = lambda name: t.busy.get(name, 0.0) / passes
        self_s = lambda name: t.self_time.get(name, 0.0) / passes
        calls = lambda name: t.calls.get(name, 0) / passes
        count = lambda name: t.counts.get(name, 0) / passes
        attributed = t.total_self() / passes
        values = {
            "similarity.graph.busy_s": busy("similarity.graph"),
            "similarity.graph.objects": count("similarity.graph.objects"),
            "similarity.pairs_scored": count("similarity.pairs_scored"),
            "similarity.edge_yield": _ratio(
                count("similarity.edges_kept"), count("similarity.pairs_scored")
            ),
            "clustering.hillclimb.busy_s": busy("clustering.hillclimb"),
            "clustering.hillclimb.calls": calls("clustering.hillclimb"),
            "clustering.dbindex.delta_calls": calls("clustering.dbindex.delta"),
            "clustering.dbindex.delta_busy_s": busy("clustering.dbindex.delta"),
            "core.recluster.busy_s": self_s("core.recluster"),
            "core.recluster.rounds": calls("core.recluster"),
            "core.ingest.busy_s": busy("core.ingest"),
            "core.merge.busy_s": busy("core.merge"),
            "core.merge.accept_ratio": _ratio(
                count("core.merge.applied"), count("core.merge.candidates")
            ),
            "core.split.busy_s": busy("core.split"),
            "core.verifications": count("core.verifications"),
            "core.observe.busy_s": busy("core.observe"),
            "core.train.busy_s": busy("core.train"),
            "ml.fit.busy_s": busy("ml.fit"),
            "ml.predict.calls": calls("ml.predict"),
            "ml.predict.busy_s": busy("ml.predict"),
            "stream.shard_apply.busy_s": busy("stream.shard_apply"),
            "stream.shard_apply.rounds": count("stream.shard_apply.rounds"),
            "stream.oplog.append.busy_s": busy("stream.oplog.append"),
            "stream.oplog.bytes_per_op": _ratio(
                count("stream.oplog.bytes"), count("stream.oplog.append.ops")
            ),
            "stream.oplog.replay.busy_s": busy("stream.oplog.replay"),
            "stream.oplog.replay.ops_read": count("stream.oplog.replay.ops_read"),
            "stream.oplog.replay.useful_ratio": _ratio(
                count("stream.oplog.replay.ops_useful"),
                count("stream.oplog.replay.ops_read"),
            ),
            "stream.checkpoint.load.busy_s": busy("stream.checkpoint.load"),
            "serve.ingest.self_s": self_s("serve.ingest"),
            "serve.activate.busy_s": busy("serve.activate"),
            "serve.activations": count("serve.activations"),
            "replica.ship.busy_s": busy("replica.ship"),
            "replica.apply.busy_s": busy("replica.apply"),
            "replica.segments": count("replica.segments"),
            "trace.overhead": overhead,
            "trace.unattributed_s": max(0.0, wall_s - attributed),
            "trace.attributed_share": _ratio(attributed, wall_s),
        }
        values.update(extra)
        return values
