"""Measurement helpers shared by the benchmark's processes.

Solver counters, peak memory, percentiles, host-speed normalisation, and
the mapping from a traced run's span summary onto the per-layer metrics
listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

#: What one calibration (``calibrate.py``) takes on the recording machine
#: when nothing else slows it (the fast end of its spread there).
REFERENCE_CALIBRATION_S = 0.00058

#: SolverStats counters summed over every freshly solved result.
STAT_FIELDS = (
    "n_input_options",
    "n_filtered_options",
    "n_regions_tested",
    "n_splits",
    "n_score_rows_computed",
    "n_score_rows_reused",
    "n_clip_calls",
    "n_lp_calls",
    "n_qhull_calls",
    "n_backend_fallbacks",
)

#: Span names whose self time is reported (``<name>.self_ms``, per operation).
SELF_TIME_SPANS = (
    "serving",
    "serving.payload",
    "result_cache",
    "engine.fingerprint",
    "engine.query",
    "prefilter",
    "prefilter.score_matrix",
    "prefilter.skyband",
    "partition",
    "partition.kernel",
    "partition.split",
    "partition.cut",
    "partition.chebyshev",
    "partition.validate",
    "partition.vertices",
    "impact",
    "mutation.apply_delta",
    "mutation.survival",
    "data.insert_options",
    "data.delete_options",
)


def host_slowdown(calibrations: Sequence[float]) -> float:
    """How much slower than the reference the host ran: median calibration
    time over :data:`REFERENCE_CALIBRATION_S`."""
    return statistics.median(calibrations) / REFERENCE_CALIBRATION_S


def normalised(latencies: Sequence[float], calibrations: Sequence[float]) -> List[float]:
    """One pass's latencies at reference host speed: each divided by the
    host slowdown measured over the pass (a pass lasts a few seconds; the
    host's slow phases last seconds to minutes, and a single calibration is
    too noisy to rescale one operation by)."""
    slowdown = host_slowdown(calibrations)
    return [latency / slowdown for latency in latencies]


def new_tally() -> Dict[str, int]:
    """Zeroed solver-counter totals."""
    return {name: 0 for name in STAT_FIELDS}


def add_stats(tally: Dict[str, int], stats) -> None:
    """Fold one result's :class:`SolverStats` into ``tally``."""
    for name in STAT_FIELDS:
        tally[name] += int(getattr(stats, name))


def peak_rss_mb(pid: str = "self") -> float:
    """``VmHWM`` (peak resident set) of process ``pid`` in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, int(math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    summary: Dict[str, dict],
    n_traced_ops: int,
    tally: Dict[str, int],
    n_solves: int,
) -> Dict[str, float]:
    """Per-layer metrics from one traced run.

    ``summary`` is :meth:`spans.Tracer.summary` over the traced operations;
    self times are reported per traced operation.  ``tally`` holds the solver
    counters of the ``n_solves`` fresh solves of the whole run (counts do not
    depend on tracing).  Shares are of solve time: the self time a layer
    spends inside ``engine.query`` spans over their summed duration.
    """
    metrics: Dict[str, float] = {}
    for name in SELF_TIME_SPANS:
        metrics[f"{name}.self_ms"] = ratio(summary.get(name, {}).get("self_ms", 0.0), n_traced_ops)

    def solve_self_of(prefix: str) -> float:
        return sum(
            entry["solve_self_ms"]
            for name, entry in summary.items()
            if name == prefix or name.startswith(prefix + ".")
        )

    solve_ms = summary.get("engine.query", {}).get("total_ms", 0.0)
    metrics["prefilter.share"] = ratio(solve_self_of("prefilter"), solve_ms)
    metrics["partition.share"] = ratio(solve_self_of("partition"), solve_ms)
    for name in ("prefilter", "partition", "impact", "mutation.apply_delta"):
        metrics[f"{name}.calls"] = float(summary.get(name, {}).get("calls", 0))
    metrics["prefilter.kept_ratio"] = ratio(tally["n_filtered_options"], tally["n_input_options"])
    metrics["partition.regions_tested"] = ratio(tally["n_regions_tested"], n_solves)
    metrics["partition.splits"] = ratio(tally["n_splits"], n_solves)
    metrics["partition.vertex_cache_hit_ratio"] = ratio(
        tally["n_score_rows_reused"], tally["n_score_rows_reused"] + tally["n_score_rows_computed"]
    )
    metrics["geometry.clip_calls"] = ratio(tally["n_clip_calls"], n_solves)
    metrics["geometry.lp_calls"] = ratio(tally["n_lp_calls"], n_solves)
    metrics["geometry.qhull_calls"] = ratio(tally["n_qhull_calls"], n_solves)
    metrics["geometry.backend_fallbacks"] = ratio(tally["n_backend_fallbacks"], n_solves)
    return metrics


def latency_metrics(latencies_s: List[float]) -> Dict[str, float]:
    """``latency_p50_ms`` / ``latency_p90_ms`` of per-operation latencies."""
    return {
        "latency_p50_ms": percentile(latencies_s, 0.50) * 1000.0,
        "latency_p90_ms": percentile(latencies_s, 0.90) * 1000.0,
    }


def layer_unit(name: str) -> str:
    """Unit of one per-layer metric, read off its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith((".calls", "_calls", ".regions_tested", ".splits", ".dominance_tests",
                      ".memos_salvaged", ".spans_per_op", ".backend_fallbacks")):
        return "count"
    return "1"
