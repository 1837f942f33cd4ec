"""TopRR end-to-end benchmark: one command, four fixed-work workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve-d3-cold --seed 1 --seconds 10 --trace 0

Workloads (see ``README.md`` for why each exists and what it should show):

* ``solve-d3-cold`` — in-process ``TopRREngine.query`` over distinct
  queries, d=3 COR; the r-skyband pre-filter does the work.
* ``solve-d4-cold`` — in-process ``query_batch`` calls of distinct d=4
  queries, each on its own small catalogue; the partition does the work.
* ``serve-hot`` — an HTTP replica restored from a snapshot of 32 hot
  queries, one keep-alive client sending ``/batch`` requests; every query
  is a result-cache hit.
* ``serve-churn`` — a replica, one client, ``/mutate`` rounds each followed
  by a sweep of the hot set.

Each run does a fixed amount of work derived from ``--seconds``, all of it
generated from ``--seed``; runs closed-loop (a client waits for each reply);
checks every answer, untimed; and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the layer wrappers of
``spans.py`` are installed and the per-layer metrics are reported instead.

A run is ``PASSES`` passes, each in a fresh process (worker or replica) that
runs the same operations from a cold start.  Set-up (fresh process start to
the first timed operation: imports, dataset build, engine bind, for serve
workloads server boot and snapshot restore, plus one untimed warm-up query)
is timed in every pass and its median reported as ``setup_s``.  Every
operation is timed in every pass, and its latency is that of its fastest
pass.  In a traced run the last pass is traced and the others give the
untraced timings.

Times are reported at reference host speed.  The machine this benchmark is
recorded on slows all work by up to ~1.8x in phases lasting seconds to
minutes, so raw times of identical work spread past any useful bound.  Next
to every operation (and every set-up) the benchmark times a fixed
calibration kernel that shares no code or memory with the program (it runs
in its own process, ``calibrate.py``); each time is divided by the host
slowdown measured over its pass (calibration time over its reference).  The
raw figures are printed on the line before the result.  The run and every
process it starts share one CPU, so the calibration measures the CPU the
work runs on.

Equal work is enforced: each pass records exact solver and cache counts and
a SHA-256 over every returned ``V_all``; the passes of a run must agree, and
a run whose record differs from an earlier run of the same workload, seed
and seconds in this checkout fails.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread per process, set before numpy loads (children inherit it):
# each workload has one engine process doing the work, and on a small shared
# machine more BLAS threads only add contention.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import measure  # noqa: E402  (after the thread settings above)
import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: Calibration kernel runs before each timed set-up.
SETUP_CALIBRATIONS = 5
#: Longest a child process may take to answer one message.
CHILD_TIMEOUT_S = 150.0
#: Solver threads of the served replica: at most the machine's core count.
SERVER_THREADS = max(1, min(2, os.cpu_count() or 1))


# ---------------------------------------------------------------------- #
# child processes
# ---------------------------------------------------------------------- #
class Child:
    """A child process spoken to by lines on stdin/stdout."""

    def __init__(self, argv):
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
        )
        self._buffer = b""

    def send(self, line: str) -> None:
        self.proc.stdin.write((line + "\n").encode())
        self.proc.stdin.flush()

    def recv(self, timeout: float = CHILD_TIMEOUT_S) -> str:
        """The next output line; raises if the child dies or stays silent."""
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"child {self.proc.args[1]} sent nothing for {timeout:.0f}s")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    raise RuntimeError(f"child {self.proc.args[1]} exited ({self.proc.wait()})")
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode()

    def ask(self, command: str) -> dict:
        self.send(command)
        return json.loads(self.recv())

    def close(self) -> None:
        """Stop the child (politely, then by force) and wait for it."""
        if self.proc.poll() is None:
            try:
                self.send("stop")
                self.proc.stdin.close()
                self.proc.wait(timeout=20)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


# ---------------------------------------------------------------------- #
# timing
# ---------------------------------------------------------------------- #
def per_op_fastest(passes, normalise: bool) -> list:
    """Per operation, the lowest of its latencies over ``passes`` (each at
    reference host speed when ``normalise``)."""
    lists = [
        measure.normalised(p["latencies"], p["calibrations"]) if normalise else p["latencies"]
        for p in passes
    ]
    return [min(times) for times in zip(*lists)]


def untraced_passes(passes, trace: bool) -> list:
    """The passes whose timings count: all, or all but the traced last one."""
    return passes[:-1] if trace else passes


def overhead_ratio(passes) -> float:
    """Tracing overhead: 1 − (mean untraced pass time / traced pass time),
    both at reference host speed."""
    totals = [sum(measure.normalised(p["latencies"], p["calibrations"])) for p in passes]
    return 1.0 - measure.ratio(statistics.mean(totals[:-1]), totals[-1])


def timing_metrics(passes, setups, is_solve=None) -> dict:
    """The end-to-end timings, at reference host speed and raw.

    ``setups`` are ``(seconds, calibrations)`` pairs; ``is_solve`` marks the
    operations whose latencies the percentiles are of (default: all).
    """
    out = {}
    for key, normalise in (("calibrated", True), ("raw", False)):
        latencies = per_op_fastest(passes, normalise)
        chosen = latencies if is_solve is None else [t for t, solve in zip(latencies, is_solve) if solve]
        out[key] = dict(
            setup_s=statistics.median(s / measure.host_slowdown(c) if normalise else s for s, c in setups),
            ops_per_s=measure.ratio(len(latencies), sum(latencies)),
            **measure.latency_metrics(chosen),
        )
    return out


def run_slowdown(passes, setups) -> float:
    """The run's host slowdown: over every calibration it made."""
    calibrations = [c for p in passes for c in p["calibrations"]]
    return measure.host_slowdown(calibrations + [c for _s, cs in setups for c in cs])


def timed_setup(calibrator: Calibrator, start):
    """Run ``start()`` (which returns once set-up ends) and time it; the host
    speed is calibrated just before.  Returns ``(start's value, (seconds,
    calibrations))``."""
    calibrations = [calibrator.measure() for _ in range(SETUP_CALIBRATIONS)]
    started = time.perf_counter()
    value = start()
    return value, (time.perf_counter() - started, calibrations)


# ---------------------------------------------------------------------- #
# solve workloads
# ---------------------------------------------------------------------- #
def start_worker(argv) -> Child:
    """A solve worker that has finished its set-up."""
    child = Child(argv)
    try:
        if child.recv() != "READY":
            raise RuntimeError("solve worker did not report READY")
    except BaseException:
        child.close()
        raise
    return child


def run_solve(workload, seed: int, seconds: float, trace: bool, calibrator: Calibrator) -> dict:
    """``PASSES`` fresh worker processes, each timing every operation once;
    the last one also runs the correctness checks (and, traced, the spans)."""
    setups, passes = [], []
    for number in range(workloads.PASSES):
        last = number == workloads.PASSES - 1
        argv = [
            sys.executable, str(HERE / "solve_worker.py"), workload.name, str(seed), str(seconds),
            str(int(trace and last)), str(int(last)),
        ]
        child, setup = timed_setup(calibrator, lambda: start_worker(argv))
        setups.append(setup)
        try:
            child.send("go")
            line = child.recv()
            if not line.startswith("RESULT "):
                raise RuntimeError(f"unexpected worker output {line[:80]!r}")
            passes.append(json.loads(line[len("RESULT "):]))
        finally:
            child.close()

    message = passes[-1]
    n_ops = len(message["latencies"])
    timings = timing_metrics(untraced_passes(passes, trace), setups)
    peak_rss = statistics.median(p["peak_rss_mb"] for p in passes)
    layers = {}
    if trace:
        layers = measure.layer_metrics(message["trace"], n_ops, message["tally"], message["n_solves"])
        layers.update(serve_layer_defaults())
        layers["trace.overhead_ratio"] = overhead_ratio(passes)
        layers["trace.spans_per_op"] = measure.ratio(message["n_spans"], n_ops)
        fp = message["fingerprint"]
        layers["engine.result_cache.hit_ratio"] = measure.ratio(fp["result_hits"], fp["result_hits"] + fp["result_misses"])
        layers["engine.skyband_cache.hit_ratio"] = measure.ratio(fp["skyband_hits"], fp["skyband_hits"] + fp["skyband_misses"])
    return {
        "attempted": n_ops * len(passes),
        "failed": sum(p["failed"] for p in passes),
        "e2e": dict(timings["calibrated"], peak_rss_mb=peak_rss),
        "raw": dict(timings["raw"], peak_rss_mb=peak_rss),
        "host_slowdown": run_slowdown(passes, setups),
        "layers": layers,
        "fingerprints": [p["fingerprint"] for p in passes],
    }


def serve_layer_defaults() -> dict:
    """Per-layer metrics only the served workloads produce, at zero."""
    return {
        "serving.overhead_ms": 0.0,
        "serving.response_bytes": 0.0,
        "serving.mutate_latency_p50_ms": 0.0,
        "mutation.survivor_ratio": 0.0,
        "mutation.dominance_tests": 0.0,
        "mutation.memos_salvaged": 0.0,
        "serialization.load_caches_s": 0.0,
        "serialization.snapshot_bytes": 0.0,
    }


# ---------------------------------------------------------------------- #
# serve workloads
# ---------------------------------------------------------------------- #
class Client:
    """One keep-alive HTTP/1.1 connection (``http.client``), closed loop."""

    def __init__(self, port: int):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=CHILD_TIMEOUT_S)

    def post(self, path: str, body: bytes):
        """``(status, body, seconds)``; a broken connection is reopened."""
        started = time.perf_counter()
        try:
            self.conn.request("POST", path, body, {"Content-Type": "application/json"})
            response = self.conn.getresponse()
            data = response.read()
            return response.status, data, time.perf_counter() - started
        except (OSError, http.client.HTTPException) as exc:
            print(f"request to {path} failed: {exc!r}", file=sys.stderr)
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=CHILD_TIMEOUT_S)
            return 0, b"", time.perf_counter() - started

    def get_json(self, path: str) -> dict:
        self.conn.request("GET", path)
        return json.loads(self.conn.getresponse().read())

    def close(self) -> None:
        self.conn.close()


def boot_server(workload, seed: int, snapshot: Path, trace: bool, warmup: bytes):
    """Boot one replica; returns ``(child, ready message)`` once set-up has
    ended: when the untimed warm-up solve has been answered."""
    argv = [
        sys.executable, "-u", str(HERE / "server_launcher.py"),
        workload.name, str(seed), str(snapshot), str(int(trace)), str(SERVER_THREADS),
    ]
    child = Child(argv)
    try:
        ready = json.loads(child.recv())
        client = Client(ready["port"])
        status, _body, _seconds = client.post("/solve", warmup)
        client.close()
        if status != 200:
            raise RuntimeError(f"warm-up solve answered {status}")
    except BaseException:
        child.close()
        raise
    return child, ready


def run_serve(workload, seed: int, seconds: float, trace: bool, work: Path, calibrator: Calibrator) -> dict:
    from repro.engine import TopRREngine
    from repro.serving.schemas import result_payload

    # The snapshot a previous replica left behind: the hot set, solved once.
    dataset = workloads.make_dataset(workload, seed)
    specs = workloads.hot_specs(workload, seed)
    reference = TopRREngine(dataset)
    # Expected answers as decoded JSON: equal decoded JSON is equal bytes,
    # since finite float64 values round-trip exactly.
    expected = [
        json.loads(json.dumps(result_payload(reference.query(workload.k, workloads.region_of(spec, workload.d)))))
        for spec in specs
    ]
    snapshot = reference.save_caches(work / "snapshot.json")
    queries = [{"k": workload.k, "region": spec} for spec in specs]
    if workload.solves_per_round:
        rounds, final = workloads.churn_script(workload, seed, dataset, workload.n_rounds(seconds))
        requests = churn_requests(rounds, queries)
    else:
        requests = hot_requests(workload, seed, seconds, queries)

    setups, passes = [], []
    for number in range(workloads.PASSES):
        last = number == workloads.PASSES - 1
        warmup = json.dumps(queries[0]).encode()
        (child, ready), setup = timed_setup(
            calibrator, lambda: boot_server(workload, seed, snapshot, trace and last, warmup)
        )
        setups.append(setup)
        try:
            outcome = serve_pass(workload, child, ready["port"], requests, expected, trace and last, calibrator)
            if workload.solves_per_round and last:
                control = Client(ready["port"])
                try:
                    failures, checks = churn_check(workload, seed, control, final, specs, queries, outcome["metrics"])
                finally:
                    control.close()
                outcome["failed"] += failures
                outcome["attempted"] += checks
        finally:
            child.close()
        outcome["ready"] = ready
        passes.append(outcome)

    is_solve = [path != "/mutate" for path, _indices, _body in requests]
    timings = timing_metrics(untraced_passes(passes, trace), setups, is_solve)
    peak_rss = statistics.median(p["peak_rss_mb"] for p in passes)
    layers = {}
    if trace:
        traced = passes[-1]
        fingerprint, report, mutations = traced["fingerprint"], traced["report"], traced["mutations"]
        layers = measure.layer_metrics(report["trace"], len(requests), report["tally"], report["n_solves"])
        survived, evicted = fingerprint["mutations_survived"], fingerprint["mutations_evicted"]
        latencies = per_op_fastest(untraced_passes(passes, trace), normalise=True)
        mutate_latencies = [t for t, solve in zip(latencies, is_solve) if not solve]
        layers.update(
            {
                "serving.overhead_ms": measure.percentile(traced["overheads"], 0.5) * 1000.0,
                "serving.response_bytes": measure.ratio(sum(traced["sizes"]), len(traced["sizes"])),
                "serving.mutate_latency_p50_ms": measure.percentile(mutate_latencies, 0.5) * 1000.0,
                "mutation.survivor_ratio": measure.ratio(survived, survived + evicted),
                "mutation.dominance_tests": measure.ratio(mutations["n_dominance_tests"], mutations["n_deltas"]),
                "mutation.memos_salvaged": float(mutations["n_memos_salvaged"]),
                "serialization.load_caches_s": statistics.median(p["ready"]["load_caches_s"] for p in passes),
                "serialization.snapshot_bytes": float(traced["ready"]["snapshot_bytes"]),
                "trace.overhead_ratio": overhead_ratio(passes),
                "trace.spans_per_op": measure.ratio(report["n_spans"], len(requests)),
                "engine.result_cache.hit_ratio": measure.ratio(
                    fingerprint["result_hits"], fingerprint["result_hits"] + fingerprint["result_misses"]
                ),
                "engine.skyband_cache.hit_ratio": measure.ratio(
                    fingerprint["skyband_hits"], fingerprint["skyband_hits"] + fingerprint["skyband_misses"]
                ),
            }
        )
    return {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "e2e": dict(timings["calibrated"], peak_rss_mb=peak_rss),
        "raw": dict(timings["raw"], peak_rss_mb=peak_rss),
        "host_slowdown": run_slowdown(passes, setups),
        "layers": layers,
        "fingerprints": [p["fingerprint"] for p in passes],
    }


def hot_requests(workload, seed: int, seconds: float, queries) -> list:
    """serve-hot: ``/batch`` requests of ``queries_per_op`` seeded hot queries.

    Each request is ``(path, hot indices, body)``; the expected answers of
    every hot query are known, so each response is checked.
    """
    n, per = workload.n_ops(seconds), workload.queries_per_op
    flat = workloads.request_order(workload, seed, n * per)
    chunks = [tuple(flat[i * per : (i + 1) * per]) for i in range(n)]
    return [("/batch", chunk, json.dumps({"queries": [queries[i] for i in chunk]}).encode()) for chunk in chunks]


def churn_requests(rounds, queries) -> list:
    """serve-churn: per round a ``/mutate``, then ``/solve`` of its hot indices.

    Every request counts towards the operation rate; the latency percentiles
    are of the solves, and ``/mutate`` latency is reported per layer.  (A
    mixed median would sit on the boundary between the mutate and the
    re-solve latencies and jump between them from seed to seed.)
    """
    requests = []
    for script in rounds:
        requests.append(("/mutate", (), json.dumps(script.mutate_payload()).encode()))
        requests.extend(("/solve", (index,), json.dumps(queries[index]).encode()) for index in script.solves)
    return requests


def serve_pass(workload, child: Child, port: int, requests, expected, trace: bool, calibrator: Calibrator) -> dict:
    """One pass against a freshly booted replica: one keep-alive connection
    sends ``requests`` in order, closed loop, each timed on its own (and
    preceded by an untimed calibration); then the untimed checks and this
    pass's equal-work record."""
    import numpy as np

    control = Client(port)
    client = Client(port)
    try:
        before = control.get_json("/metrics")["datasets"]["default"]
        if trace:
            child.ask("trace on")
        records, calibrations = [], []
        for path, indices, body in requests:
            calibrations.append(calibrator.measure())
            records.append((path, indices, *client.post(path, body)))
        if trace:
            child.ask("trace off")
        after = control.get_json("/metrics")["datasets"]["default"]
    finally:
        client.close()
        control.close()
    peak_rss = measure.peak_rss_mb(str(child.proc.pid))
    report = child.ask("report")

    # Untimed checks: every request must answer 200; on serve-hot every
    # result must equal the snapshot engine's.
    failed = 0
    digest = hashlib.sha256()
    overheads, sizes = [], []
    for path, indices, status, body, seconds_taken in records:
        if status != 200:
            failed += 1
            continue
        if path == "/mutate":
            continue
        response = json.loads(body)
        overheads.append(seconds_taken - response["served"]["seconds"])
        sizes.append(len(body))
        mismatch = False
        for index, answer in zip(indices, response.get("responses", [response])):
            result = answer["result"]
            digest.update(np.asarray(result["vertices_reduced"], dtype=float).tobytes())
            if workload.solves_per_round == 0 and result != expected[index]:
                print(f"hot query {index}: served result differs from the engine's", file=sys.stderr)
                mismatch = True
        failed += mismatch

    counts_after, counts_before = after["cache"], before["cache"]
    mutations = after["cache"]["mutations"]

    def delta(cache: str, field: str) -> int:
        return counts_after[cache][field] - counts_before[cache][field]

    tally = report["tally"]
    fingerprint = dict(
        n_ops=len(records),
        n_filtered_options=tally["n_filtered_options"],
        n_regions_tested=tally["n_regions_tested"],
        n_splits=tally["n_splits"],
        result_hits=delta("results", "hits"),
        result_misses=delta("results", "misses"),
        skyband_hits=delta("skyband", "hits"),
        skyband_misses=delta("skyband", "misses"),
        mutations_survived=mutations["n_entries_survived"] + mutations["n_results_survived"],
        mutations_evicted=mutations["n_entries_evicted"] + mutations["n_results_evicted"],
        vall_sha256=digest.hexdigest(),
    )
    return {
        "latencies": [record[4] for record in records],
        "calibrations": calibrations,
        "attempted": len(records),
        "failed": failed,
        "peak_rss_mb": peak_rss,
        "fingerprint": fingerprint,
        "report": report,
        "mutations": mutations,
        "metrics": after,
        "overheads": overheads,
        "sizes": sizes,
    }


def churn_check(workload, seed: int, control: Client, final, specs, queries, metrics) -> tuple:
    """After the churn script: sampled hot queries must match a fresh engine.

    The fresh engine is built on the dataset the script leaves behind (the
    script was replayed locally as it was generated).  Returns
    ``(failures, checks)``.
    """
    from repro.engine import TopRREngine
    from repro.serving.schemas import result_payload

    failures = 0
    served = metrics["dataset"]
    if served["n_options"] != final.n_options or served["version"] != final.version:
        print(f"served dataset {served} differs from the replayed one", file=sys.stderr)
        failures += 1
    fresh = TopRREngine(final)
    sample = workloads.check_sample(workload, seed)
    for index in sample:
        status, body, _seconds = control.post("/solve", json.dumps(queries[index]).encode())
        want = json.loads(json.dumps(result_payload(fresh.query(workload.k, workloads.region_of(specs[index], workload.d)))))
        if status != 200 or json.loads(body)["result"] != want:
            print(f"hot query {index}: served result differs from a fresh engine", file=sys.stderr)
            failures += 1
    return failures, len(sample)


# ---------------------------------------------------------------------- #
# equal-work record
# ---------------------------------------------------------------------- #
def check_fingerprint(name: str, seed: int, seconds: float, fingerprint: dict) -> bool:
    """Compare with (or store) this workload/seed/seconds' equal-work record."""
    store = STATE / "fingerprints"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{name}-seed{seed}-seconds{seconds:g}.json"
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded != fingerprint:
            print(f"equal-work fingerprint changed: {recorded} != {fingerprint}", file=sys.stderr)
            return False
        return True
    path.write_text(json.dumps(fingerprint, sort_keys=True))
    return True


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the package source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    if hasattr(os, "sched_setaffinity"):
        # One CPU for the run and its children (inherited): the calibration
        # must run where the work runs, and one client keeps at most one
        # process busy at a time anyway.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    trace = bool(args.trace)
    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    calibrator = Calibrator()
    try:
        if workload.kind == "solve":
            outcome = run_solve(workload, args.seed, args.seconds, trace, calibrator)
        else:
            outcome = run_serve(workload, args.seed, args.seconds, trace, work, calibrator)
    except Exception:  # noqa: BLE001 - report the failure, print no result
        traceback.print_exc()
        return 1
    finally:
        calibrator.close()
        shutil.rmtree(work, ignore_errors=True)

    fingerprint, *others = outcome["fingerprints"]
    same_work = all(other == fingerprint for other in others)
    if not same_work:
        print(f"passes did different work: {outcome['fingerprints']}", file=sys.stderr)
    same_work = check_fingerprint(workload.name, args.seed, args.seconds, fingerprint) and same_work
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print("raw " + json.dumps(dict(outcome["raw"], host_slowdown=outcome["host_slowdown"]), sort_keys=True))
    outcome["layers"]["host.slowdown"] = outcome["host_slowdown"]
    units = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "peak_rss_mb": "MB"}
    if trace:
        metrics = {
            name: {"value": value, "unit": measure.layer_unit(name)}
            for name, value in sorted(outcome["layers"].items())
        }
    else:
        metrics = {name: {"value": outcome["e2e"][name], "unit": unit} for name, unit in units.items()}
    failed = outcome["failed"]
    print(
        json.dumps(
            {
                "correct": failed == 0 and same_work,
                "attempted": outcome["attempted"],
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
