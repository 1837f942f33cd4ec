"""Incremental cache maintenance versus flush-on-mutation.

A long-lived :class:`~repro.engine.TopRREngine` accumulates r-skyband
entries, vertex-score memo rows and full query results.  When the catalogue
mutates, the naive policy flushes everything and pays a cold solve per
distinct query on the next round; :meth:`TopRREngine.apply_delta` instead
keeps every entry the eviction-soundness lemma (:mod:`repro.core.mutation`)
proves untouched, so warm requeries stay warm.

This benchmark warms one engine per arm with ``DISTINCT`` (k, region) pairs,
then runs ``ROUNDS`` churn rounds (insert ``churn * n`` random rows, delete
as many random survivors) at two churn levels:

* ``flush``       — ``apply_delta`` then ``clear_caches()`` (the baseline a
  pre-mutation engine was forced into);
* ``incremental`` — ``apply_delta`` alone, caches maintained in place.

Per arm it records the total requery time across rounds; for the incremental
arm it also records the survivor rate from the engine's mutation accounting.
The parity tripwire is unconditional: after the final round the incremental
engine's answer for every warmed pair must hash (SHA-256 over ``V_all``
bytes) identically to a fresh engine built on the final dataset.

Acceptance bars (asserted at 1% churn): incremental requeries at least
``REPRO_BENCH_MIN_MUTATION_SPEEDUP`` (default 3.0) times faster than flush,
and a cache survivor rate of at least 0.8.

Results are written to ``BENCH_mutation.json``.  Run directly
(``PYTHONPATH=src python benchmarks/bench_mutation.py``) or via pytest;
``REPRO_BENCH_SCALE=smoke`` (the default) uses a smaller instance.
"""

import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.data.generators import generate_independent
from repro.engine import TopRREngine
from repro.preference.random_regions import random_hypercube_region

SEED = 7
DISTINCT = 6
ROUNDS = 5
CHURN_LEVELS = (0.01, 0.10)
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_mutation.json"


def _workload():
    """Cache-heavy instance: one catalogue, several warm (k, region) pairs."""
    smoke = os.environ.get("REPRO_BENCH_SCALE", "smoke") == "smoke"
    n_options = 2_000 if smoke else 20_000
    dataset = generate_independent(n_options, 3, rng=SEED)
    pairs = [
        (2 + i % 4, random_hypercube_region(3, 0.05, rng=SEED + 1 + i))
        for i in range(DISTINCT)
    ]
    return dataset, pairs, ("smoke" if smoke else "full")


def _min_speedup() -> float:
    """Acceptance bar for incremental vs flush at 1% churn (relaxed via env)."""
    return float(os.environ.get("REPRO_BENCH_MIN_MUTATION_SPEEDUP", "3.0"))


def _vall_hash(result) -> str:
    """SHA-256 of the V_all bytes — the parity tripwire."""
    return hashlib.sha256(result.vertices_reduced.tobytes()).hexdigest()


def _churn_schedule(dataset, churn, rounds):
    """Deterministic churn rounds shared by both arms: same deltas, same ids."""
    rng = np.random.default_rng(SEED + 99)
    schedule, current = [], dataset
    for _ in range(rounds):
        count = max(1, int(round(churn * current.n_options)))
        inserted, delta_in = current.insert_options(
            rng.random((count, current.n_attributes))
        )
        victims = rng.choice(current.option_ids, size=count, replace=False).tolist()
        current, delta_out = inserted.delete_options(option_ids=victims)
        schedule.append([(inserted, delta_in), (current, delta_out)])
    return schedule


def _run_arm(dataset, pairs, schedule, flush):
    """Warm, churn, requery; returns (requery seconds, engine, final dataset)."""
    engine = TopRREngine(dataset, rng=SEED)
    for k, region in pairs:
        engine.query(k, region)
    requery_seconds = 0.0
    current = dataset
    for steps in schedule:
        for current, delta in steps:
            engine.apply_delta(current, delta)
        if flush:
            engine.clear_caches()
        start = time.perf_counter()
        for k, region in pairs:
            engine.query(k, region)
        requery_seconds += time.perf_counter() - start
    return requery_seconds, engine, current


def run_comparison():
    """Time both arms at each churn level and return the record (asserting parity)."""
    dataset, pairs, scale = _workload()
    record = {
        "scale": scale,
        "n_options": dataset.n_options,
        "d": dataset.n_attributes,
        "distinct_pairs": len(pairs),
        "rounds": ROUNDS,
        "churn_levels": {},
    }
    for churn in CHURN_LEVELS:
        schedule = _churn_schedule(dataset, churn, ROUNDS)
        seconds_flush, _flush_engine, _ = _run_arm(dataset, pairs, schedule, flush=True)
        seconds_incremental, engine, final = _run_arm(
            dataset, pairs, schedule, flush=False
        )

        # Parity tripwire: every warmed pair, maintained vs fresh rebuild.
        oracle = TopRREngine(final, rng=SEED)
        for k, region in pairs:
            maintained = _vall_hash(engine.query(k, region))
            fresh = _vall_hash(oracle.query(k, region))
            assert maintained == fresh, (
                f"maintained V_all diverged from fresh rebuild at churn={churn}, "
                f"k={k}: {maintained[:16]} != {fresh[:16]}"
            )

        mutations = engine.cache_info()["mutations"]
        record["churn_levels"][f"{churn:.2f}"] = {
            "churn": churn,
            "seconds_flush": seconds_flush,
            "seconds_incremental": seconds_incremental,
            "speedup_incremental_vs_flush": seconds_flush
            / max(seconds_incremental, 1e-9),
            "survivor_rate": mutations["survivor_rate"],
            "n_deltas": mutations["n_deltas"],
            "n_dominance_tests": mutations["n_dominance_tests"],
            "n_memos_salvaged": mutations["n_memos_salvaged"],
            "vall_sha256": _vall_hash(engine.query(*pairs[0])),
        }
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n")
    return record


def test_mutation_maintenance_speedup():
    record = run_comparison()
    for level in record["churn_levels"].values():
        print(
            f"\n[{record['scale']}] n={record['n_options']} churn={level['churn']:.0%}: "
            f"flush {level['seconds_flush'] * 1000:.1f} ms, "
            f"incremental {level['seconds_incremental'] * 1000:.1f} ms "
            f"({level['speedup_incremental_vs_flush']:.1f}x), "
            f"survivor rate {level['survivor_rate']:.2f}, "
            f"{level['n_memos_salvaged']} memos salvaged, "
            f"V_all sha256 {level['vall_sha256'][:16]}…"
        )
    low_churn = record["churn_levels"][f"{CHURN_LEVELS[0]:.2f}"]
    minimum = _min_speedup()
    assert low_churn["speedup_incremental_vs_flush"] >= minimum, (
        f"incremental maintenance only "
        f"{low_churn['speedup_incremental_vs_flush']:.2f}x faster than flush at "
        f"{CHURN_LEVELS[0]:.0%} churn (required {minimum:.2f}x)"
    )
    assert low_churn["survivor_rate"] >= 0.8, (
        f"survivor rate {low_churn['survivor_rate']:.2f} below 0.8 at "
        f"{CHURN_LEVELS[0]:.0%} churn"
    )


if __name__ == "__main__":
    test_mutation_maintenance_speedup()
