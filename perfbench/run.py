"""Run one benchmark workload against the source tree and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-dbindex --seed 1 --seconds 40 --trace 0

Workloads: ``paper-dbindex`` and ``serve-resident`` (see
``perfbench/workloads.py``). ``--trace 0`` prints the end-to-end
metrics, measured with no wrappers. ``--trace 1`` runs one untraced
cycle, then installs the layer wrappers (``perfbench/layers.py``) and
prints the per-layer metrics per cycle, the tracing overhead (traced ÷
untraced cycle wall) and the wall time no layer accounts for.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a report (machine fingerprint, state filesystem, sample counts,
correctness checks, metric tags). The exit code is 0 only when every
correctness check passed. Without ``src/repro`` next to this directory
the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
STATE_ROOT = ROOT / ".perfbench_state"
MIN_CYCLES = {0: 1, 1: 2}
UNTRACED_CYCLES = 1  # in a traced run: the overhead baseline (with checks)

#: (metric, unit) of the end-to-end set, in BENCHMARK.json order.
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("round_ms_p50", "ms"),
    ("round_ms_p90", "ms"),
    ("recluster_ms_p50", "ms"),
    ("f1_vs_batch", "ratio"),
    ("write_ms_p50", "ms"),
    ("write_ms_p99", "ms"),
    ("read_ms_p99", "ms"),
    ("visible_ms_p50", "ms"),
    ("visible_ms_p90", "ms"),
]

LOOP = "closed loop, 1 client, 1 process, no threads"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(s, f1: float, peak_rss_mb: float, percentile) -> dict:
    ms = lambda values, q: percentile(values, q) * 1e3
    if s.pass_means:  # paper-dbindex: median over parts of each part's mean
        p50 = {
            kind: statistics.median(statistics.fmean(m) for m in by_part.values()) * 1e3
            for kind, by_part in s.pass_means.items()
        }
    else:  # serve-resident: per-call medians
        p50 = {
            "rounds": ms(s.rounds, 0.50),
            # what a round adds to a write
            "recluster": ms(s.rounds, 0.50) - ms(s.plain_writes, 0.50),
            "writes": ms(s.writes, 0.50),
            "visible": ms(s.visible.samples, 0.50),
        }
    return {
        "ops_per_s": s.ops / s.timed_s,
        "setup_s": statistics.median(s.setups),
        "peak_rss_mb": peak_rss_mb,
        "round_ms_p50": p50["rounds"],
        "round_ms_p90": ms(s.rounds, 0.90),
        "recluster_ms_p50": p50["recluster"],
        "f1_vs_batch": f1,
        "write_ms_p50": p50["writes"],
        "write_ms_p99": ms(s.writes, 0.99),
        "read_ms_p99": ms(s.reads, 0.99),
        "visible_ms_p50": p50["visible"],
        "visible_ms_p90": ms(s.visible.samples, 0.90),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import measure, workloads
    from perfbench.layers import LAYER_METRICS, LayerProbe

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(choose from {', '.join(workloads.WORKLOADS)})",
            file=sys.stderr,
        )
        return 2

    state_root = STATE_ROOT / f"{args.workload}-{os.getpid()}"
    state_root.mkdir(parents=True, exist_ok=True)
    fs = measure.fs_type(state_root)
    try:
        parts = workloads.make(args.workload, args.seed, state_root)
        s = workloads.Samples()
        timer = measure.SelfTimer()
        thresholds = {}
        for part in parts:
            thresholds.update(part.similarity_thresholds)
        probe = LayerProbe(timer, thresholds) if args.trace else None
        s.timer = timer if probe is not None else None
        # A warm-up pass, discarded: a fresh process pays first-touch
        # page faults and allocator growth that later passes do not.
        parts[0].run_pass(-1, workloads.Samples(), checks=False)
        cycles: list[float] = []  # wall of each cycle: every part once
        traced: list[float] = []
        try:
            while len(cycles) < MIN_CYCLES[args.trace] or (
                sum(cycles) * (1 + 0.5 / len(cycles)) < args.seconds
            ):
                if probe is not None and len(cycles) == UNTRACED_CYCLES:
                    probe.install()
                    s.traced = True
                index = len(cycles)
                wall = sum(part.run_pass(index, s, checks=index == 0) for part in parts)
                cycles.append(wall)
                if s.traced:
                    traced.append(wall)
        finally:
            if probe is not None:
                probe.uninstall()
        peak_rss_mb = measure.peak_rss_mb()
    finally:
        shutil.rmtree(state_root, ignore_errors=True)
        try:
            STATE_ROOT.rmdir()
        except OSError:
            pass  # another run still holds its own state directory

    f1 = s.f1_vs_batch()
    checks = dict(s.checks)
    checks["same_partitions_every_pass"] = all(
        len(digests) == 1 for digests in s.digests.values()
    )
    checks["f1_vs_batch_measured"] = f1 is not None
    correct = all(checks.values())

    samples = {
        "writes": measure.summarize_ms(s.writes, (0.50, 0.99)),
        "rounds": measure.summarize_ms(s.rounds, (0.50, 0.90)),
        "reads": measure.summarize_ms(s.reads, (0.99,)),
        "visible": measure.summarize_ms(s.visible.samples, (0.50, 0.90)),
    }
    if s.pass_means:
        samples["passes_per_part"] = {
            part: len(means) for part, means in s.pass_means["writes"].items()
        }
    report = {
        "workload": args.workload,
        "why": parts[0].why,
        "seed": args.seed,
        "trace": args.trace,
        "parts": len(parts),
        "cycles": len(cycles),
        "cycle_walls_s": cycles,
        "setups_s": s.setups,
        "loop": LOOP,
        "flush_policy": parts[0].flush_policy,
        "state_fs": fs if parts[0].state_dir is not None else "none (in memory)",
        "machine": measure.fingerprint(),
        "samples": samples,
        "visibility": {
            "superseded": s.visible.superseded,
            "excluded_after_final_flush": s.visible.excluded,
            "never_visible": s.visible.never_visible,
        },
        "checks": checks,
        "notes": s.notes,
    }
    if s.replica_visible.samples:
        report["replica_visible"] = measure.summarize_ms(
            s.replica_visible.samples, (0.50, 0.90)
        )
        report["replica_visible"]["excluded_after_final_flush"] = s.replica_visible.excluded

    if args.trace:
        untraced = cycles[UNTRACED_CYCLES - 1]
        per_cycle = statistics.fmean(traced)  # layer totals are per-cycle means too
        replica = s.replica_visible.samples
        extra = {
            "replica.visible_ms_p50": measure.percentile(replica, 0.50) * 1e3 if replica else 0.0,
            "replica.visible_ms_p90": measure.percentile(replica, 0.90) * 1e3 if replica else 0.0,
        }
        values = probe.metrics(len(traced), per_cycle, per_cycle / untraced, extra)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
        report["layer_tags"] = {name: moves for name, _, moves in LAYER_METRICS}
        report["traced_cycles"] = len(traced)
    else:
        values = end_to_end(s, f1, peak_rss_mb, measure.percentile)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(json.dumps({"report": report}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": s.attempted,
                "failed": s.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
