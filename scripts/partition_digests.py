#!/usr/bin/env python
"""Final-partition digests of the benchmark workloads, for one or two trees.

A change meant to keep every partition identical (a performance change)
is checked by running each benchmark part once, untimed, and comparing
the digest of its final partition across two source trees.

Usage, from the root of a checkout::

    PYTHONHASHSEED=0 python scripts/partition_digests.py paper-dbindex 71 72
    python scripts/partition_digests.py --compare PARENT_TREE . paper-dbindex 71 72

The first form prints one line per part of each seed: workload, seed,
part and the part's digest. ``--tree DIR`` digests another checkout
instead of this one. ``--compare A B`` runs the first form on both
trees in child processes (``PYTHONHASHSEED=0`` unless set), prints the
parts whose digests differ, and exits 1 if any does, else 0. Export a
parent commit to compare against with ``git archive <rev> | tar -x -C
<dir>``.

Not a CI gate: adjacency-row order follows string-hash order, and
clustering can depend on row order and on BLAS rounding, so digests
are only comparable between runs with the same hash seed on the same
machine.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--tree", type=pathlib.Path, default=ROOT)
    group.add_argument("--compare", nargs=2, type=pathlib.Path, metavar=("A", "B"))
    parser.add_argument("workload", choices=("paper-dbindex", "serve-resident"))
    parser.add_argument("seeds", nargs="+", type=int)
    return parser.parse_args(argv)


def digest_lines(tree: pathlib.Path, workload: str, seeds: list[int]):
    """Yield ``workload seed part digest`` for every part, importing from ``tree``."""
    tree = tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree)]
    from perfbench import workloads

    for seed in seeds:
        with tempfile.TemporaryDirectory() as root:
            for part in workloads.make(workload, seed, pathlib.Path(root)):
                samples = workloads.Samples()
                part.run_pass(0, samples, checks=False)
                digests = " ".join(sorted(samples.digests[part.part]))
                yield f"{workload} {seed} {part.part} {digests}"


def compare(trees, workload: str, seeds: list[int]) -> int:
    env = dict(os.environ)
    env.setdefault("PYTHONHASHSEED", "0")
    children = [
        subprocess.Popen(
            [sys.executable, __file__, "--tree", str(tree), workload]
            + [str(seed) for seed in seeds],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        for tree in trees
    ]
    outputs = [child.communicate()[0].splitlines() for child in children]
    if any(child.returncode for child in children):
        print("a digest run failed", file=sys.stderr)
        return 2
    differing = 0
    for line_a, line_b in zip(*outputs):
        if line_a != line_b:
            differing += 1
            print(f"differs: {line_a}\n     vs: {line_b}")
    if len(outputs[0]) != len(outputs[1]):
        differing += 1
        print("differs: the trees report different numbers of parts")
    print(f"{len(outputs[0])} parts, {differing} differing (PYTHONHASHSEED={env['PYTHONHASHSEED']})")
    return 1 if differing else 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare:
        return compare(args.compare, args.workload, args.seeds)
    if "PYTHONHASHSEED" not in os.environ:
        print("warning: PYTHONHASHSEED is unset; digests are not comparable", file=sys.stderr)
    for line in digest_lines(args.tree, args.workload, args.seeds):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
