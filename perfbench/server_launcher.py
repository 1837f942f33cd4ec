"""The serve workloads' replica: one unbuffered process running ``ToprrServer``.

Started by ``run.py`` as ``python -u server_launcher.py <workload> <seed>
<snapshot> <trace> <threads>``.  It rebuilds the workload's dataset from
the seed, binds a :class:`TopRREngine`, restores the warm caches with
``load_caches`` and serves on a free localhost port with a solver pool of
``threads`` workers.  Once bound it prints ``READY <json>`` (port, restore
time and counts).

Its standard input is a control channel, one command per line, each
answered by one JSON line on standard output:

* ``trace on`` / ``trace off`` — switch span recording (traced runs only);
* ``report`` — solver counters of every fresh solve, and the span summary;
* ``stop`` (or end of input) — shut the server down and exit.

The engine's ``query`` is wrapped on the instance to sum the
:class:`SolverStats` of freshly solved results — the equal-work counts of
the served workloads — in traced and untraced runs alike.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import measure  # noqa: E402  (sibling modules; src must be on the path first)
import workloads  # noqa: E402
from spans import ContextThreadPool, Tracer  # noqa: E402


def reply(message: dict) -> None:
    """One control-channel answer."""
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


async def serve(argv) -> int:
    name, seed, snapshot, trace, threads = argv[1], int(argv[2]), Path(argv[3]), argv[4] == "1", int(argv[5])
    workload = workloads.get(name)
    tracer = Tracer()
    if trace:
        tracer.install()

    from repro.engine import TopRREngine
    from repro.serving import EngineRegistry
    from repro.serving.server import ToprrServer

    engine = TopRREngine(workloads.make_dataset(workload, seed))
    started = time.perf_counter()
    restored = engine.load_caches(snapshot)
    load_seconds = time.perf_counter() - started
    if trace:
        tracer.watch_result_cache(engine)

    tally = measure.new_tally()
    solved = {"n": 0}
    # Results are held, so an id is never reused by a later result.
    seen: dict = {}
    plain_query = engine.query

    def counted_query(*args, **kwargs):
        result = plain_query(*args, **kwargs)
        if id(result) not in seen:  # a fresh solve, not a result-cache hit
            seen[id(result)] = result
            solved["n"] += 1
            measure.add_stats(tally, result.stats)
        return result

    engine.query = counted_query
    registry = EngineRegistry()
    registry.add("default", engine)
    server = ToprrServer(registry, host="127.0.0.1", port=0, n_solver_threads=threads)
    if trace:
        server._executor.shutdown(wait=False)
        server._executor = ContextThreadPool(max_workers=threads, thread_name_prefix="toprr-solve")
    await server.start()
    reply(
        {
            "ready": True,
            "port": server.port,
            "load_caches_s": load_seconds,
            "snapshot_bytes": snapshot.stat().st_size,
            "restored": restored,
        }
    )

    loop = asyncio.get_running_loop()
    try:
        while True:
            command = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
            if command in ("", "stop"):
                break
            if command == "trace on":
                tracer.enabled = trace
                reply({"trace": tracer.enabled})
            elif command == "trace off":
                tracer.enabled = False
                reply({"trace": False})
            elif command == "report":
                reply(
                    {
                        "tally": tally,
                        "n_solves": solved["n"],
                        "trace": tracer.summary(),
                        "n_spans": len(tracer.spans),
                    }
                )
            else:
                reply({"error": f"unknown command {command!r}"})
    finally:
        # Let handlers of connections the clients already closed finish
        # before the loop shuts down (avoids cancelled-task noise).
        await asyncio.sleep(0.2)
        await server.stop()
    if trace:
        trace_dir = Path.cwd() / ".perfbench" / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_dir / f"{name}-seed{seed}.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(asyncio.run(serve(sys.argv)))
