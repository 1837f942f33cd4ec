"""Workload definitions and seeded input generation for the TopRR benchmark.

Every input the program under test receives — the option dataset, the query
regions, the mutation script — is generated here from the workload seed, so
a run is reproducible from ``(workload, seed, seconds)`` alone and a claim
can be re-checked on a seed that was not used while it was written.

The amount of work is fixed, not timed: each workload turns ``--seconds``
into an operation count through ``nominal_ops_per_s`` (the rate measured on
the recording machine, see ``README.md``), split over ``PASSES`` passes that
each run the same operations.  Two runs with the same seed and seconds
therefore do provably identical work, which the equal-work fingerprint in
``run.py`` checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np


#: Passes per run.  Each pass runs the same operations in a fresh process
#: (so every pass starts cold), and an operation's latency is that of its
#: fastest pass.
PASSES = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its inputs' shape and its fixed amount of work."""

    name: str
    kind: str  # "solve" (in-process engine) or "serve" (HTTP replica)
    distribution: str
    n: int
    d: int
    sigma: float
    k: int
    nominal_ops_per_s: float
    queries_per_op: int = 1  # regions per operation (one query_batch call / one /batch request)
    catalogue_per_op: bool = False  # solve: every op gets its own seeded catalogue
    hot_queries: int = 0  # serve: queries held in the restored snapshot
    solves_per_round: int = 0  # serve-churn: solves of distinct hot queries after each /mutate
    churn_fraction: float = 0.0  # serve-churn: inserted and deleted share per round

    def n_ops(self, seconds: float) -> int:
        """Operations in one pass: ``--seconds`` of work at the nominal rate,
        split over ``PASSES`` passes (fixed, host-independent)."""
        return max(1, int(math.ceil(seconds * self.nominal_ops_per_s / PASSES)))

    def n_rounds(self, seconds: float) -> int:
        """serve-churn: ``/mutate`` rounds of one pass (each one mutate plus its solves)."""
        return max(1, int(math.ceil(self.n_ops(seconds) / (self.solves_per_round + 1))))


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("solve-d3-cold", "solve", "COR", 3_000, 3, 0.01, 10, 30.0),
        Workload(
            "solve-d4-cold",
            "solve",
            "IND",
            60,
            4,
            0.0125,
            5,
            120.0,
            queries_per_op=2,
            catalogue_per_op=True,
        ),
        Workload(
            "serve-hot",
            "serve",
            "IND",
            5_000,
            3,
            0.01,
            10,
            75.0,
            queries_per_op=8,
            hot_queries=32,
        ),
        Workload(
            "serve-churn",
            "serve",
            "IND",
            500,
            3,
            0.003,
            10,
            70.0,
            hot_queries=32,
            solves_per_round=32,
            churn_fraction=0.1,
        ),
    )
}


def make_dataset(workload: Workload, seed: int, catalogue: int = 0):
    """The option dataset ``D`` of one run (or of one of its catalogues)."""
    from repro.data.generators import generate_synthetic

    return generate_synthetic(
        workload.distribution, workload.n, workload.d, rng=np.random.default_rng([seed, 1, catalogue])
    )


def box_specs(d: int, sigma: float, count: int, rng: np.random.Generator) -> List[dict]:
    """``count`` distinct axis-aligned ``sigma``-boxes inside the weight simplex.

    Returned as ``/solve`` region specs (``{"intervals": ...}``); every path —
    in-process, served, reference — builds its region from the same spec, so
    the solver sees bit-identical inputs everywhere.
    """
    specs: List[dict] = []
    seen = set()
    while len(specs) < count:
        lower = rng.uniform(0.0, 1.0 - sigma, size=d - 1)
        upper = lower + sigma
        if upper.sum() > 1.0:
            continue
        key = tuple(np.round(lower, 9))
        if key in seen:
            continue
        seen.add(key)
        specs.append({"intervals": [[float(lo), float(hi)] for lo, hi in zip(lower, upper)]})
    return specs


def region_of(spec: dict, d: int):
    """The :class:`PreferenceRegion` a spec describes (as the server parses it)."""
    from repro.serving.schemas import region_from_spec

    return region_from_spec(spec, d)


def solve_inputs(workload: Workload, seed: int, seconds: float) -> Tuple[list, list]:
    """Solve workloads: ``(datasets, ops)``, an op being ``(dataset index, region specs)``.

    There are ``n_ops(seconds)`` ops of ``queries_per_op`` distinct regions
    each, so every query misses both engine LRUs.  With ``catalogue_per_op``
    every op runs on its own seeded catalogue: the run's cost then averages
    over many catalogues instead of resting on one catalogue's extremes.
    """
    n_ops, per = workload.n_ops(seconds), workload.queries_per_op
    if not workload.catalogue_per_op:
        specs = box_specs(workload.d, workload.sigma, n_ops * per, np.random.default_rng([seed, 2]))
        return [make_dataset(workload, seed)], [(0, specs[i * per : (i + 1) * per]) for i in range(n_ops)]
    datasets = [make_dataset(workload, seed, op) for op in range(n_ops)]
    ops = [
        (op, box_specs(workload.d, workload.sigma, per, np.random.default_rng([seed, 2, op])))
        for op in range(n_ops)
    ]
    return datasets, ops


def warmup_spec(workload: Workload, seed: int) -> dict:
    """The untimed warm-up query; drawn from its own stream, so never a timed query."""
    return box_specs(workload.d, workload.sigma, 1, np.random.default_rng([seed, 3]))[0]


def hot_specs(workload: Workload, seed: int) -> List[dict]:
    """Serve workloads: the hot query set stored in the restored snapshot."""
    return box_specs(workload.d, workload.sigma, workload.hot_queries, np.random.default_rng([seed, 4]))


def request_order(workload: Workload, seed: int, count: int) -> List[int]:
    """serve-hot: the seeded sequence of hot-set indices the client requests."""
    rng = np.random.default_rng([seed, 5])
    return rng.integers(0, workload.hot_queries, size=count).tolist()


@dataclass
class ChurnRound:
    """One serve-churn round: a ``/mutate`` payload, then solves of hot indices."""

    insert_values: List[List[float]]
    insert_ids: List[int]
    delete_ids: List[int]
    solves: List[int]

    def mutate_payload(self) -> dict:
        """The ``/mutate`` request body of this round."""
        return {
            "insert": {"values": self.insert_values, "option_ids": self.insert_ids},
            "delete": {"option_ids": self.delete_ids},
        }


def churn_script(workload: Workload, seed: int, dataset, n_rounds: int):
    """The serve-churn script and the dataset it leaves behind.

    Each round inserts and deletes ``churn_fraction`` of the catalogue
    (catalogue size is conserved, ids churn), then solves
    ``solves_per_round`` distinct seeded hot queries.  The script is replayed on a
    local copy of the dataset as it is generated, so delete victims are
    always live ids and the final dataset is known for the correctness check.
    """
    rng = np.random.default_rng([seed, 6])
    batch = max(1, int(round(workload.churn_fraction * workload.n)))
    next_id = 10 * workload.n
    rounds: List[ChurnRound] = []
    current = dataset
    for _ in range(n_rounds):
        values = rng.random((batch, workload.d))
        ids = list(range(next_id, next_id + batch))
        next_id += batch
        current, _delta = current.insert_options(values, option_ids=ids)
        # Victims are drawn from the options present before this round, so a
        # round never deletes what it just inserted.
        pool = current.option_ids[: current.n_options - batch]
        victims = [pool[i] for i in sorted(rng.choice(len(pool), size=batch, replace=False))]
        current, _delta = current.delete_options(option_ids=victims)
        solves = rng.permutation(workload.hot_queries)[: workload.solves_per_round].tolist()
        rounds.append(ChurnRound(values.tolist(), ids, victims, solves))
    return rounds, current


def check_sample(workload: Workload, seed: int, size: int = 8) -> List[int]:
    """serve-churn: hot indices re-checked against a fresh engine after the run."""
    rng = np.random.default_rng([seed, 7])
    return sorted(rng.choice(workload.hot_queries, size=min(size, workload.hot_queries), replace=False).tolist())


def get(name: str) -> Optional[Workload]:
    """The workload called ``name``, or ``None``."""
    return WORKLOADS.get(name)
