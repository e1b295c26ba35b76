"""Cross-round transformation derivation (§4.3).

Given the clustering *before* a round (after the §6.1 initial
processing, so both clusterings cover the same objects) and the batch
algorithm's *new* clustering, derive a small sequence of merge/split
steps transforming the old partition into the new one. These steps —
not the batch algorithm's internal search trace — are the cluster
evolution DynamicC trains on, because they describe only the
*difference* between rounds.

The paper's two-phase scheme (Phase 1: keep batch-log steps touching
changed objects; Phase 2: align remaining clusters by splitting old
clusters into their intersections with each new cluster, then merging
the intersections) is implemented by :func:`two_phase_transformation`.
:func:`derive_transformation` is the self-contained variant used by the
training pipeline: it performs the Phase-2 alignment over *all* new
clusters, which provably yields a complete transformation without
needing the batch log, and — as §4.3 notes — step ordering is
irrelevant for training.
"""

from __future__ import annotations

from typing import Iterable

from repro.evolution import EvolutionLog, MergeOp, SplitOp

Partition = Iterable[Iterable[int]]


def _as_groups(partition: Partition) -> list[frozenset[int]]:
    groups = [frozenset(group) for group in partition]
    return [group for group in groups if group]


def derive_transformation(old: Partition, new: Partition) -> EvolutionLog:
    """Merge/split steps transforming partition ``old`` into ``new``.

    Both partitions must cover exactly the same objects. The result is
    minimal in the §4.3 sense: each old cluster is split only into its
    non-trivial intersections with new clusters, and each new cluster is
    assembled with n−1 pairwise merges of those intersections.
    """
    old_groups = _as_groups(old)
    new_groups = _as_groups(new)
    old_objects = set().union(*old_groups) if old_groups else set()
    new_objects = set().union(*new_groups) if new_groups else set()
    if old_objects != new_objects:
        raise ValueError(
            "old and new partitions must cover the same objects "
            f"(difference: {sorted((old_objects ^ new_objects))[:10]} ...)"
        )

    log = EvolutionLog()
    # Current working partition, indexed by membership for fast lookup.
    current: dict[int, frozenset[int]] = {}
    group_of: dict[int, int] = {}
    for idx, group in enumerate(old_groups):
        current[idx] = group
        for obj_id in group:
            group_of[obj_id] = idx
    next_idx = len(old_groups)

    # Deterministic order: largest new clusters first, ties by min member.
    for target in sorted(new_groups, key=lambda g: (-len(g), min(g))):
        # Find current groups overlapping the target.
        overlapping: dict[int, frozenset[int]] = {}
        for obj_id in target:
            idx = group_of[obj_id]
            overlapping.setdefault(idx, current[idx])
        pieces: list[frozenset[int]] = []
        piece_ids: list[int] = []
        for idx, group in sorted(overlapping.items(), key=lambda kv: min(kv[1])):
            intersection = group & target
            if intersection < group:
                # Split the group into (intersection, remainder).
                log.append(SplitOp(cluster=group, part=intersection))
                remainder = group - intersection
                current[idx] = remainder
                for obj_id in remainder:
                    group_of[obj_id] = idx
                piece_idx = next_idx
                next_idx += 1
                current[piece_idx] = intersection
                for obj_id in intersection:
                    group_of[obj_id] = piece_idx
                pieces.append(intersection)
                piece_ids.append(piece_idx)
            else:
                pieces.append(group)
                piece_ids.append(idx)
        # Merge the pieces pairwise into the target (n − 1 merges).
        accumulated = pieces[0]
        accumulated_idx = piece_ids[0]
        for piece, piece_idx in zip(pieces[1:], piece_ids[1:]):
            log.append(MergeOp(left=accumulated, right=piece))
            accumulated = accumulated | piece
            del current[piece_idx]
            current[accumulated_idx] = accumulated
            for obj_id in piece:
                group_of[obj_id] = accumulated_idx
    return log


def two_phase_transformation(
    batch_log: EvolutionLog,
    old: Partition,
    new: Partition,
    changed: set[int],
) -> EvolutionLog:
    """The paper's literal two-phase derivation (Example 4.2).

    Phase 1 keeps the batch steps relevant to this round's changed
    objects (latest change per object). Phase 2 inspects each cluster
    appearing in those kept changes: any such cluster that contains old
    objects but does not exist in the old clustering is aligned by
    splitting the overlapping old clusters into intersections and
    merging them.

    Returned steps transform *the relevant portion* of the old
    clustering; the self-contained :func:`derive_transformation` is what
    training uses by default.
    """
    old_groups = _as_groups(old)
    old_partition = set(old_groups)
    log = EvolutionLog()

    # Phase 1 — keep only the latest change touching each changed object.
    seen: set[int] = set()
    kept: list = []
    for op in reversed(list(batch_log)):
        touched = op.touched_objects() & changed
        if touched - seen:
            kept.append(op)
            seen |= touched
    kept.reverse()
    for op in kept:
        log.append(op)

    # Phase 2 — align clusters of kept changes that pre-existed partially.
    handled: set[frozenset[int]] = set()
    for op in kept:
        sides = (
            (op.left, op.right) if isinstance(op, MergeOp) else (op.cluster - op.part, op.part)
        )
        for side in sides:
            old_side = side - changed
            if not old_side or side in handled:
                continue
            handled.add(side)
            if frozenset(old_side) in old_partition or side in old_partition:
                continue
            # Split overlapping old clusters into intersections with `side`.
            pieces: list[frozenset[int]] = []
            for group in old_groups:
                intersection = group & side
                if not intersection:
                    continue
                if intersection < group:
                    log.append(SplitOp(cluster=group, part=intersection))
                pieces.append(intersection)
            accumulated = pieces[0] if pieces else frozenset()
            for piece in pieces[1:]:
                log.append(MergeOp(left=accumulated, right=piece))
                accumulated = accumulated | piece
    return log


def replay_transformation(groups: Partition, log: EvolutionLog) -> frozenset[frozenset[int]]:
    """Apply an evolution log to a partition (validation utility).

    Raises ``ValueError`` when a step does not match the current state
    — the test suite uses this to prove derived transformations are
    well-formed and complete.
    """
    current: set[frozenset[int]] = set(_as_groups(groups))
    for op in log:
        if isinstance(op, MergeOp):
            if op.left not in current or op.right not in current:
                raise ValueError(f"merge sides not present: {op}")
            current.remove(op.left)
            current.remove(op.right)
            current.add(op.left | op.right)
        else:
            if op.cluster not in current:
                raise ValueError(f"split cluster not present: {op}")
            current.remove(op.cluster)
            current.add(op.part)
            current.add(op.cluster - op.part)
    return frozenset(current)
