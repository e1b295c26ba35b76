"""Benchmark fixtures: shared experiment suites, computed once per session.

Each figure/table bench reads from these cached runs, times a
representative kernel through pytest-benchmark, and prints a
paper-vs-measured table (also written to ``benchmarks/results/``).
"""

from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import _config as config
from repro.clustering.baselines import GreedyIncremental, NaiveIncremental
from repro.clustering.batch import DBSCAN, HillClimbing
from repro.clustering.objectives import DBIndexObjective, KMeansObjective
from repro.core import (
    DBSCANBatchAdapter,
    DynamicC,
    DynamicCConfig,
    make_dynamic_dbscan,
)
from repro.data.generators import (
    generate_access,
    generate_cora,
    generate_febrl,
    generate_musicbrainz,
    generate_road,
)
from repro.data.workload import OperationMix, build_workload
from repro.eval.harness import run_batch_per_round, run_incremental

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def _emitted_files():
    """Result files ``emit`` has written during this pytest session."""
    return set()


@pytest.fixture
def emit(capsys, _emitted_files):
    """Print a report table past pytest's capture and persist it.

    The first write to a file in a session truncates it and later
    writes append, so a file holds one run's tables, not every run's.
    """

    def _emit(text: str, filename: str = "summary.txt") -> None:
        with capsys.disabled():
            print(text)
        RESULTS_DIR.mkdir(exist_ok=True)
        mode = "a" if filename in _emitted_files else "w"
        _emitted_files.add(filename)
        with open(RESULTS_DIR / filename, mode) as handle:
            handle.write(text + "\n")

    return _emit


def _generate(spec: dict):
    kind = spec["generator"]
    if kind == "cora":
        return generate_cora(
            n_entities=spec["n_entities"],
            n_duplicates=spec["n_duplicates"],
            distribution=spec["distribution"],
            seed=spec["seed"],
        )
    if kind == "musicbrainz":
        return generate_musicbrainz(
            n_entities=spec["n_entities"],
            n_duplicates=spec["n_duplicates"],
            distribution=spec["distribution"],
            seed=spec["seed"],
        )
    if kind == "febrl":
        return generate_febrl(
            n_originals=spec["n_entities"],
            n_duplicates=spec["n_duplicates"],
            distribution=spec["distribution"],
            seed=spec["seed"],
        )
    raise ValueError(kind)


def _workload(dataset, spec: dict):
    return build_workload(
        dataset,
        initial_count=spec["initial"],
        n_snapshots=spec["snapshots"],
        mixes=OperationMix(add=spec["add"], remove=spec["remove"], update=spec["update"]),
        seed=spec["seed"] + 1,
    )


# ---------------------------------------------------------------------------
# DB-index suite (Figs. 6–7, Tables 2–3, headline, ablations)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def dbindex_suite():
    suite = {}
    for name, spec in config.DBINDEX_DATASETS.items():
        dataset = _generate(spec)
        workload = _workload(dataset, spec)
        bootstrap = lambda g: HillClimbing(DBIndexObjective()).cluster(g)
        reference = run_batch_per_round(
            workload,
            lambda: HillClimbing(DBIndexObjective()),
            score_fn=lambda c: DBIndexObjective().score(c),
        )
        naive = run_incremental(
            workload,
            lambda g: NaiveIncremental(g, threshold=0.4),
            bootstrap=bootstrap,
            score_fn=lambda c: DBIndexObjective().score(c),
        )
        greedy = run_incremental(
            workload,
            lambda g: GreedyIncremental(g, DBIndexObjective()),
            bootstrap=bootstrap,
            score_fn=lambda c: DBIndexObjective().score(c),
        )
        dynamicc = run_incremental(
            workload,
            lambda g: DynamicC(g, DBIndexObjective(), seed=0),
            bootstrap=bootstrap,
            train_rounds=config.DBINDEX_TRAIN_ROUNDS,
            score_fn=lambda c: DBIndexObjective().score(c),
        )
        dynamicc_greedyset = run_incremental(
            workload,
            lambda g: DynamicC(g, DBIndexObjective(), seed=0),
            bootstrap=bootstrap,
            train_rounds=config.DBINDEX_TRAIN_ROUNDS,
            reset_from=greedy,
            score_fn=lambda c: DBIndexObjective().score(c),
            name="dynamicc-greedyset",
        )
        suite[name] = {
            "dataset": dataset,
            "workload": workload,
            "reference": reference,
            "naive": naive,
            "greedy": greedy,
            "dynamicc": dynamicc,
            "dynamicc_greedyset": dynamicc_greedyset,
        }
    return suite


# ---------------------------------------------------------------------------
# k-means suite (Figs. 5(d), 5(e))
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def kmeans_suite():
    spec = config.KMEANS_ROAD
    dataset = generate_road(
        n_roads=spec["n_roads"], points_per_road=spec["points_per_road"], seed=spec["seed"]
    )
    workload = build_workload(
        dataset,
        initial_count=spec["initial"],
        n_snapshots=spec["snapshots"],
        mixes=OperationMix(add=spec["add"], remove=spec["remove"], update=spec["update"]),
        seed=spec["seed"] + 1,
    )
    k, penalty = spec["k"], spec["penalty"]

    def make_objective():
        return KMeansObjective(k=k, penalty=penalty)

    score_fn = lambda c: make_objective().score(c)
    bootstrap = lambda g: HillClimbing(make_objective()).cluster(g)
    reference = run_batch_per_round(
        workload, lambda: HillClimbing(make_objective()), score_fn=score_fn
    )
    naive = run_incremental(
        workload,
        lambda g: NaiveIncremental(g, threshold=0.35),
        bootstrap=bootstrap,
        score_fn=score_fn,
    )
    greedy = run_incremental(
        workload,
        lambda g: GreedyIncremental(g, make_objective()),
        bootstrap=bootstrap,
        score_fn=score_fn,
    )

    def dynamicc_factory(graph):
        objective = make_objective()
        return DynamicC(
            graph,
            objective,
            batch=HillClimbing(objective),
            config=DynamicCConfig(candidate_scope="all"),
            seed=0,
        )

    dynamicc = run_incremental(
        workload,
        dynamicc_factory,
        bootstrap=bootstrap,
        train_rounds=config.KMEANS_TRAIN_ROUNDS,
        score_fn=score_fn,
    )
    dynamicc_greedyset = run_incremental(
        workload,
        dynamicc_factory,
        bootstrap=bootstrap,
        train_rounds=config.KMEANS_TRAIN_ROUNDS,
        reset_from=greedy,
        score_fn=score_fn,
        name="dynamicc-greedyset",
    )
    return {
        "dataset": dataset,
        "workload": workload,
        "spec": spec,
        "reference": reference,
        "naive": naive,
        "greedy": greedy,
        "dynamicc": dynamicc,
        "dynamicc_greedyset": dynamicc_greedyset,
    }


# ---------------------------------------------------------------------------
# DBSCAN suite (Figs. 5(b), 5(c))
# ---------------------------------------------------------------------------


def _dbscan_runs(dataset, spec):
    workload = build_workload(
        dataset,
        initial_count=spec["initial"],
        n_snapshots=spec["snapshots"],
        mixes=OperationMix(add=spec["add"], remove=spec["remove"], update=spec["update"]),
        seed=spec["seed"] + 1,
    )
    sim_eps, min_pts = spec["sim_eps"], spec["min_pts"]
    reference = run_batch_per_round(
        workload, lambda: DBSCANBatchAdapter(sim_eps, min_pts)
    )
    dynamicc = run_incremental(
        workload,
        lambda g: make_dynamic_dbscan(
            g, sim_eps, min_pts, config=DynamicCConfig(candidate_scope="local"), seed=0
        ),
        bootstrap=lambda g: DBSCAN(sim_eps, min_pts).run(g).clustering,
        train_rounds=config.DBSCAN_TRAIN_ROUNDS,
    )
    return {"workload": workload, "reference": reference, "dynamicc": dynamicc}


@pytest.fixture(scope="session")
def dbscan_access_suite():
    spec = config.DBSCAN_ACCESS
    dataset = generate_access(
        n_profiles=spec["n_profiles"], n_records=spec["n_records"], seed=spec["seed"]
    )
    return _dbscan_runs(dataset, spec) | {"dataset": dataset, "spec": spec}


@pytest.fixture(scope="session")
def dbscan_road_suite():
    spec = config.DBSCAN_ROAD
    dataset = generate_road(
        n_roads=spec["n_roads"], points_per_road=spec["points_per_road"], seed=spec["seed"]
    )
    return _dbscan_runs(dataset, spec) | {"dataset": dataset, "spec": spec}


# ---------------------------------------------------------------------------
# ML evaluation suite (Fig. 3, Fig. 4, Tables 4–5)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def evolution_samples():
    """Merge-model training matrices per dataset, from observed evolution."""
    import numpy as np

    suite = {}
    for name, spec in config.DBINDEX_DATASETS.items():
        dataset = _generate(spec)
        workload = _workload(dataset, spec)
        graph = dataset.graph()
        for obj_id, payload in workload.initial.items():
            graph.add_object(obj_id, payload)
        dyn = DynamicC(graph, DBIndexObjective(), seed=7)
        dyn.bootstrap(HillClimbing(DBIndexObjective()).cluster(graph))
        for snapshot in workload.snapshots:
            dyn.observe_round(
                added=snapshot.added,
                removed=snapshot.removed,
                updated=snapshot.updated,
            )
        X, y = dyn.buffer.merge_matrix()
        rng = np.random.default_rng(0)
        order = rng.permutation(len(y))
        suite[name] = (X[order], y[order])
    return suite
