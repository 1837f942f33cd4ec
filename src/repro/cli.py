"""Command-line interface.

Examples
--------
List all reproducible experiments::

    toprr list

Run one experiment (Figure 9a at smoke scale) and print its table::

    toprr run fig9a --scale smoke

Solve a single TopRR instance on synthetic data::

    toprr solve --n 5000 --d 4 --k 10 --sigma 0.05 --method "tas*"

Serve a batch of queries against one dataset through the caching engine::

    toprr batch --n 5000 --d 4 --queries 50 --distinct 10

Stream inserts/deletes through a warm engine with incremental cache
maintenance (compare against --flush to see what the maintenance saves)::

    toprr mutate --n 5000 --d 3 --rounds 5 --churn 0.01

Run a serving replica over HTTP, restoring warm caches from a snapshot and
persisting them again on shutdown::

    toprr serve --n 5000 --d 4 --port 8321 \
        --snapshot caches.json --save-snapshot caches.json
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

import numpy as np

from repro.core.placement import cheapest_new_option
from repro.core.sharded import ShardedPrefilter
from repro.core.toprr import solve_toprr
from repro.data.generators import generate_synthetic
from repro.engine import TopRREngine
from repro.exceptions import InvalidParameterError
from repro.experiments.ablations import ABLATIONS, run_ablation
from repro.experiments.config import Scale
from repro.experiments.figures import EXPERIMENTS, run_experiment
from repro.experiments.reporting import format_table, save_csv_rows
from repro.preference.random_regions import random_hypercube_region
from repro.version import __version__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toprr",
        description="TopRR: creating top ranking options (VLDB 2019 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list the reproducible figures and tables")

    run = sub.add_parser("run", help="run one experiment or ablation and print its rows")
    run.add_argument(
        "experiment",
        help=f"experiment id, one of {sorted(EXPERIMENTS) + sorted(ABLATIONS)}",
    )
    run.add_argument("--scale", default="scaled", help="smoke | scaled | paper (default: scaled)")
    run.add_argument("--csv", default=None, help="optional path to save the rows as CSV")

    solve = sub.add_parser("solve", help="solve one TopRR instance on synthetic data")
    solve.add_argument("--n", type=int, default=10_000, help="number of options")
    solve.add_argument("--d", type=int, default=4, help="number of attributes")
    solve.add_argument("--k", type=int, default=10, help="rank requirement k")
    solve.add_argument("--sigma", type=float, default=0.01, help="preference-region side length")
    solve.add_argument("--distribution", default="IND", help="IND | COR | ANTI")
    solve.add_argument("--method", default="tas*", help="tas* | tas | pac")
    solve.add_argument("--seed", type=int, default=7, help="random seed")
    solve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard the r-skyband pre-filter over N disjoint option partitions "
        "(process-parallel, bit-identical result; default: unsharded)",
    )
    solve.add_argument(
        "--shard-strategy",
        default="contiguous",
        help="contiguous | hash (default: contiguous); only with --shards",
    )
    solve.add_argument(
        "--shard-executor",
        default="process",
        help="process | serial (default: process); only with --shards",
    )
    solve.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        help="per-batch deadline in seconds for pool shard tasks; a task still "
        "running past it counts as hung and is retried on a fresh pool "
        "(default: wait indefinitely); only with --shards",
    )
    solve.add_argument(
        "--shard-retries",
        type=int,
        default=2,
        help="pool re-submissions allowed per shard task after its first "
        "failure (default: 2); only with --shards",
    )
    solve.add_argument(
        "--no-fallback",
        action="store_true",
        help="fail the query (ShardExecutionError) when a shard stays "
        "unrecoverable, instead of degrading it to serial in-process "
        "execution; only with --shards",
    )

    batch = sub.add_parser(
        "batch",
        help="serve a batch of TopRR queries on one synthetic dataset via the caching engine",
    )
    batch.add_argument("--n", type=int, default=5_000, help="number of options")
    batch.add_argument("--d", type=int, default=4, help="number of attributes")
    batch.add_argument("--k", type=int, default=10, help="largest rank requirement k")
    batch.add_argument("--sigma", type=float, default=0.05, help="preference-region side length")
    batch.add_argument("--distribution", default="IND", help="IND | COR | ANTI")
    batch.add_argument("--method", default="tas*", help="tas* | tas | pac")
    batch.add_argument("--queries", type=int, default=50, help="total queries in the session")
    batch.add_argument(
        "--distinct", type=int, default=10, help="distinct (k, region) pairs in the mix"
    )
    batch.add_argument(
        "--executor",
        default="serial",
        help="serial | process (default: serial); 'process' fans distinct queries "
        "out over worker processes without shared caches — for CPU-bound scaling "
        "on one large catalogue use --shards, which parallelises inside each query",
    )
    batch.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard the engine's r-skyband pre-filter: it runs process-parallel "
        "over N option shards per query (ignores --executor)",
    )
    batch.add_argument(
        "--shard-strategy",
        default="contiguous",
        help="contiguous | hash (default: contiguous); only with --shards",
    )
    batch.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        help="per-batch deadline in seconds for pool shard tasks "
        "(default: wait indefinitely); only with --shards",
    )
    batch.add_argument(
        "--shard-retries",
        type=int,
        default=2,
        help="pool re-submissions allowed per shard task after its first "
        "failure (default: 2); only with --shards",
    )
    batch.add_argument(
        "--no-fallback",
        action="store_true",
        help="fail instead of degrading unrecoverable shard tasks to serial "
        "in-process execution; only with --shards",
    )
    batch.add_argument("--seed", type=int, default=7, help="random seed")
    batch.add_argument(
        "--mutate-every",
        type=int,
        default=None,
        help="interleave a random insert/delete mutation after every N queries "
        "(incremental cache maintenance keeps provably valid entries; "
        "default: no mutations)",
    )
    batch.add_argument(
        "--churn",
        type=float,
        default=0.01,
        help="fraction of the catalogue touched per interleaved mutation "
        "(default: 0.01); only with --mutate-every",
    )

    mutate = sub.add_parser(
        "mutate",
        help="stream inserts/deletes through a warm engine and report what the "
        "incremental cache maintenance keeps alive",
    )
    mutate.add_argument("--n", type=int, default=5_000, help="number of options")
    mutate.add_argument("--d", type=int, default=3, help="number of attributes")
    mutate.add_argument("--k", type=int, default=8, help="largest rank requirement k")
    mutate.add_argument("--sigma", type=float, default=0.05, help="preference-region side length")
    mutate.add_argument("--distribution", default="IND", help="IND | COR | ANTI")
    mutate.add_argument("--method", default="tas*", help="tas* | tas | pac")
    mutate.add_argument("--distinct", type=int, default=6, help="distinct (k, region) pairs")
    mutate.add_argument("--rounds", type=int, default=5, help="mutation rounds")
    mutate.add_argument(
        "--churn",
        type=float,
        default=0.01,
        help="fraction of the catalogue inserted and deleted per round (default: 0.01)",
    )
    mutate.add_argument(
        "--flush",
        action="store_true",
        help="baseline arm: clear every cache on each mutation instead of the "
        "incremental survival test",
    )
    mutate.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard the engine's r-skyband pre-filter over N option shards "
        "(serial executor); mutations re-plan the shards automatically",
    )
    mutate.add_argument("--seed", type=int, default=7, help="random seed")

    serve = sub.add_parser(
        "serve",
        help="serve TopRR queries over HTTP (/solve /batch /mutate /health /metrics)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8321, help="bind port; 0 picks a free one")
    serve.add_argument("--n", type=int, default=5_000, help="number of synthetic options")
    serve.add_argument("--d", type=int, default=4, help="number of attributes")
    serve.add_argument("--distribution", default="IND", help="IND | COR | ANTI")
    serve.add_argument("--method", default="tas*", help="default solver: tas* | tas | pac")
    serve.add_argument("--seed", type=int, default=7, help="random seed")
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard the engine's r-skyband pre-filter over N option shards "
        "(process-parallel)",
    )
    serve.add_argument(
        "--threads",
        type=int,
        default=4,
        help="solver worker threads backing the event loop (default: 4)",
    )
    serve.add_argument(
        "--snapshot",
        default=None,
        help="engine snapshot to restore warm caches from on boot "
        "(must exist; a corrupt or mismatched snapshot fails the boot loudly)",
    )
    serve.add_argument(
        "--save-snapshot",
        default=None,
        help="write the engine's caches to this snapshot path on shutdown",
    )

    return parser


def _sharded_prefilter(args: argparse.Namespace, executor: str = "process"):
    """The ``--shards`` pre-filter of a command's engine, or ``None`` without the flag.

    Commands that lack a ``--shard-*`` flag use its default; the caller
    closes the returned pre-filter.
    """
    if not args.shards:
        return None
    return ShardedPrefilter(
        args.shards,
        strategy=getattr(args, "shard_strategy", "contiguous"),
        executor=getattr(args, "shard_executor", executor),
        timeout=getattr(args, "shard_timeout", None),
        retries=getattr(args, "shard_retries", 2),
        fallback=not getattr(args, "no_fallback", False),
    )


def _churn_step(rng, dataset, fraction):
    """One churn round: insert ~``fraction * n`` rows, delete as many old ones.

    Returns the two ``(dataset, delta)`` steps in application order — each
    delta is applied to an engine together with the dataset it produced.
    Catalogue size is conserved, ids churn.
    """
    count = max(1, int(round(fraction * dataset.n_options)))
    inserted, delta_in = dataset.insert_options(rng.random((count, dataset.n_attributes)))
    victims = rng.choice(dataset.option_ids, size=count, replace=False).tolist()
    mutated, delta_out = inserted.delete_options(option_ids=victims)
    return [(inserted, delta_in), (mutated, delta_out)]


def _command_list() -> int:
    for registry, heading in ((EXPERIMENTS, "paper experiments"), (ABLATIONS, "extension studies")):
        print(f"[{heading}]")
        for name in sorted(registry):
            doc = (registry[name].__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"  {name:20s}  {summary}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    scale = Scale.parse(args.scale)
    if args.experiment in ABLATIONS:
        rows = run_ablation(args.experiment, scale=scale)
    else:
        rows = run_experiment(args.experiment, scale=scale)
    print(format_table(rows, title=f"{args.experiment} (scale={scale.value})"))
    if args.csv:
        path = save_csv_rows(rows, args.csv)
        print(f"\nsaved {len(rows)} rows to {path}")
    return 0


def _command_solve(args: argparse.Namespace) -> int:
    dataset = generate_synthetic(args.distribution, args.n, args.d, rng=args.seed)
    region = random_hypercube_region(args.d, args.sigma, rng=args.seed + 1)
    shards = _sharded_prefilter(args)
    try:
        result = solve_toprr(dataset, args.k, region, method=args.method, prefilter=shards)
    finally:
        if shards:
            shards.close()
    print(format_table([result.summary()], title="TopRR result"))
    if args.shards:
        print(
            f"\nsharded pre-filter: {result.stats.n_shards} shards "
            f"({args.shard_strategy}, executor={args.shard_executor}), "
            f"merge {result.stats.merge_seconds * 1000:.2f} ms"
        )
        if result.stats.degraded or result.stats.n_retries:
            print(
                f"resilience: {result.stats.n_retries} retries, "
                f"{result.stats.n_worker_crashes} worker crashes, "
                f"{result.stats.n_pool_rebuilds} pool rebuilds, "
                f"{result.stats.n_degraded_shards} shard(s) degraded to serial"
            )
    if not result.is_empty():
        placement = cheapest_new_option(result)
        values = ", ".join(f"{v:.4f}" for v in placement.option)
        print(f"\ncost-optimal new option: [{values}]  (sum-of-squares cost {placement.cost:.4f})")
    else:
        print("\nthe top-ranking region is empty within the unit option box")
    return 0


def _command_batch(args: argparse.Namespace) -> int:
    if args.queries <= 0:
        print("error: --queries must be positive", file=sys.stderr)
        return 2
    dataset = generate_synthetic(args.distribution, args.n, args.d, rng=args.seed)
    distinct = max(1, min(args.distinct, args.queries))
    pairs = [
        (
            1 + (args.seed + i) % max(args.k, 1),
            random_hypercube_region(args.d, args.sigma, rng=args.seed + 1 + i),
        )
        for i in range(distinct)
    ]
    queries = [pairs[i % distinct] for i in range(args.queries)]

    shards = _sharded_prefilter(args)
    engine = TopRREngine(dataset, method=args.method, rng=args.seed, prefilter=shards)
    if shards:
        label = f"shards={shards.n_shards}x{args.shard_strategy}"
    else:
        label = f"executor={args.executor}"
    mutate_every = args.mutate_every
    if mutate_every is not None and mutate_every <= 0:
        print("error: --mutate-every must be positive", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        if mutate_every:
            # Interleave churn mutations with the query stream: the engine
            # keeps serving and only provably affected caches are rebuilt.
            rng = np.random.default_rng(args.seed + 99)
            current, results, n_deltas = dataset, [], 0
            for index, (k, region) in enumerate(queries):
                if index and index % mutate_every == 0:
                    for current, delta in _churn_step(rng, current, args.churn):
                        engine.apply_delta(current, delta)
                        n_deltas += 1
                results.append(engine.query(k, region))
        else:
            # A sharded pre-filter parallelises inside each query instead.
            results = engine.query_batch(queries, executor="serial" if shards else args.executor)
    except InvalidParameterError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if shards:
            shards.close()
    seconds = time.perf_counter() - start

    rows = [results[i].summary() for i in range(distinct)]
    print(format_table(rows, title=f"engine batch ({args.queries} queries, {distinct} distinct)"))
    info = engine.cache_info()
    print(
        f"\n{len(results)} queries in {seconds:.2f}s "
        f"({len(results) / max(seconds, 1e-9):.1f} queries/s, {label})"
    )
    print(f"result cache: {info['results']}")
    print(f"r-skyband cache: {info['skyband']}")
    if mutate_every:
        mutations = info["mutations"]
        print(
            f"mutations: {mutations['n_deltas']} deltas, survivor rate "
            f"{mutations['survivor_rate']:.2f} "
            f"({mutations['n_entries_survived']} skyband + "
            f"{mutations['n_results_survived']} results kept, "
            f"{mutations['n_entries_evicted'] + mutations['n_results_evicted']} evicted, "
            f"{mutations['n_memos_salvaged']} memos salvaged)"
        )
    return 0


def _command_mutate(args: argparse.Namespace) -> int:
    if args.rounds <= 0 or args.distinct <= 0:
        print("error: --rounds and --distinct must be positive", file=sys.stderr)
        return 2
    if not (0.0 < args.churn < 1.0):
        print("error: --churn must be a fraction in (0, 1)", file=sys.stderr)
        return 2
    dataset = generate_synthetic(args.distribution, args.n, args.d, rng=args.seed)
    pairs = [
        (
            1 + (args.seed + i) % max(args.k, 1),
            random_hypercube_region(args.d, args.sigma, rng=args.seed + 1 + i),
        )
        for i in range(args.distinct)
    ]
    shards = _sharded_prefilter(args, executor="serial")
    engine = TopRREngine(dataset, method=args.method, rng=args.seed, prefilter=shards)
    try:
        warm = time.perf_counter()
        for k, region in pairs:
            engine.query(k, region)
        warm_seconds = time.perf_counter() - warm
        print(
            f"warmed {args.distinct} (k, region) pairs on n={args.n} d={args.d} "
            f"in {warm_seconds:.2f}s"
        )

        rng = np.random.default_rng(args.seed + 99)
        current = dataset
        arm = "flush-all" if args.flush else "incremental"
        total = time.perf_counter()
        for round_index in range(args.rounds):
            steps = _churn_step(rng, current, args.churn)
            for current, delta in steps:
                engine.apply_delta(current, delta)
            if args.flush:
                # Baseline arm: discard everything the maintenance kept, as a
                # pre-mutation engine had to (apply_delta still rebinds the
                # dataset).
                engine.clear_caches()
            round_timer = time.perf_counter()
            for k, region in pairs:
                engine.query(k, region)
            requery_seconds = time.perf_counter() - round_timer
            print(
                f"round {round_index + 1}/{args.rounds} ({arm}): "
                f"{steps[0][1].n_inserted + steps[1][1].n_deleted} options churned, "
                f"requery {requery_seconds * 1000:.1f} ms"
            )
        total_seconds = time.perf_counter() - total

        info = engine.cache_info()
        print(f"\n{args.rounds} rounds in {total_seconds:.2f}s ({arm} maintenance)")
        if not args.flush:
            mutations = info["mutations"]
            print(
                f"maintenance: {mutations['n_deltas']} deltas, survivor rate "
                f"{mutations['survivor_rate']:.2f}, "
                f"{mutations['n_dominance_tests']} dominance tests, "
                f"{mutations['n_memos_salvaged']} memos salvaged"
            )
        # Parity tripwire: the maintained engine answers exactly like a fresh
        # engine built on the final dataset.
        k, region = pairs[0]
        maintained = engine.query(k, region)
        oracle = TopRREngine(current, method=args.method, rng=args.seed).query(k, region)
        if maintained.vertices_reduced.tobytes() != oracle.vertices_reduced.tobytes():
            print("error: maintained engine diverged from a fresh rebuild", file=sys.stderr)
            return 1
        print("parity: maintained results are bit-identical to a fresh rebuild")
    finally:
        if shards:
            shards.close()
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from repro.exceptions import SerializationError
    from repro.serving import EngineRegistry
    from repro.serving.server import ToprrServer

    dataset = generate_synthetic(args.distribution, args.n, args.d, rng=args.seed)
    shards = _sharded_prefilter(args)
    engine = TopRREngine(dataset, method=args.method, rng=args.seed, prefilter=shards)
    if args.snapshot:
        path = Path(args.snapshot)
        if not path.exists():
            print(f"error: snapshot {path} does not exist", file=sys.stderr)
            return 2
        try:
            counts = engine.load_caches(path)
        except SerializationError as error:
            print(f"error: refusing snapshot {path}: {error}", file=sys.stderr)
            return 2
        print(
            f"restored warm caches from {path}: "
            f"{counts['skyband_entries']} skyband entries, "
            f"{counts['result_entries']} results, {counts['memo_rows']} memo rows"
        )

    registry = EngineRegistry()
    registry.add("default", engine)
    server = ToprrServer(
        registry, host=args.host, port=args.port, n_solver_threads=args.threads
    )

    async def _serve() -> None:
        await server.start()
        print(f"serving {dataset.name} (n={dataset.n_options}, d={dataset.n_attributes}) "
              f"at {server.url} — Ctrl-C to stop")
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        if args.save_snapshot:
            path = engine.save_caches(args.save_snapshot)
            print(f"saved warm caches to {path}")
        if shards:
            shards.close()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (returns a process exit code)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "solve":
        return _command_solve(args)
    if args.command == "batch":
        return _command_batch(args)
    if args.command == "mutate":
        return _command_mutate(args)
    if args.command == "serve":
        return _command_serve(args)
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
