"""Shared metrics registry: counters, gauges and latency percentiles.

Inference-server style: every stage of the request path records into one
shared :class:`MetricsRegistry`, and ``stats()`` snapshots the whole
thing as one JSON-serializable dict — the payload behind the
``repro serve --stats-json`` endpoint and ``repro stats``.

Thread-safe; all components of a stack (engine stages, queue,
dispatcher, workers, caches) share one registry.

Latency reservoirs are **deterministic and lifetime-representative**: a
stride-doubling systematic sample.  The first ``MAX_SAMPLES``
observations are all kept; each time the reservoir fills it is decimated
to every other sample and the sampling stride doubles, so at any moment
the reservoir holds every ``stride``-th observation of the *entire*
history.  Percentiles therefore describe the same population as
``count``/``mean_ms`` — unlike the previous ring overwrite, whose
percentiles silently switched to "the last 4096 samples" after
wraparound while the lifetime aggregates kept growing.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Dict, List

# Latency reservoirs are bounded; a fuzzing campaign can issue millions of
# requests and percentile quality does not need more than this.
MAX_SAMPLES = 4096


class LatencyStat:
    """Lifetime aggregates + a deterministic systematic sample reservoir."""

    def __init__(self):
        self.count = 0
        self.total_ms = 0.0
        self.max_ms = 0.0
        self.last_ms = 0.0
        self._samples: List[float] = []
        self._stride = 1

    def record(self, ms: float) -> None:
        self.count += 1
        self.total_ms += ms
        self.last_ms = ms
        if ms > self.max_ms:
            self.max_ms = ms
        # Systematic sampling: keep every stride-th observation (1-based
        # observation index 1, 1+stride, 1+2*stride, ...).
        if (self.count - 1) % self._stride:
            return
        if len(self._samples) >= MAX_SAMPLES:
            # Decimate to every other kept sample and double the stride;
            # the reservoir stays a uniform sample of the whole history.
            self._samples = self._samples[::2]
            self._stride *= 2
            if (self.count - 1) % self._stride:
                return
        self._samples.append(ms)

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0

    @property
    def sample_stride(self) -> int:
        """Every ``sample_stride``-th observation is in the reservoir."""
        return self._stride

    def percentile(self, p: float) -> float:
        """Deterministic nearest-rank percentile (ties round *up*).

        ``round()`` is banker's rounding: a tie lands on the even rank,
        so p50 over two samples picked the lower one and p90 could
        under-report by a rank depending on reservoir parity.  Nearest
        rank with ``ceil`` never under-reports and is parity-independent.
        The 1e-9 slack absorbs float noise (0.9 * 10 == 9.000000000000002
        must not ceil to 10); true midpoints like 0.5 stay above it.
        """
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        n = len(ordered)
        rank = min(n - 1, max(0, math.ceil(p / 100 * (n - 1) - 1e-9)))
        return ordered[rank]

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_ms": self.mean_ms,
            "p50_ms": self.percentile(50),
            "p90_ms": self.percentile(90),
            "p99_ms": self.percentile(99),
            "max_ms": self.max_ms,
        }


class MetricsRegistry:
    """Shared registry: counters + gauges + named latency stats."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._latencies: Dict[str, LatencyStat] = {}

    # -- recording ------------------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, ms: float) -> None:
        with self._lock:
            stat = self._latencies.get(name)
            if stat is None:
                stat = self._latencies[name] = LatencyStat()
            stat.record(ms)

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, 0)

    def latency(self, name: str) -> LatencyStat:
        """The named stat (created empty if missing) — tests and export."""
        with self._lock:
            stat = self._latencies.get(name)
            if stat is None:
                stat = self._latencies[name] = LatencyStat()
            return stat

    # -- export ---------------------------------------------------------------

    def stats(self) -> dict:
        """One JSON-serializable snapshot of everything recorded."""
        with self._lock:
            snapshot = {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "latency": {
                    name: stat.summary()
                    for name, stat in self._latencies.items()
                },
            }
        requests = snapshot["counters"].get("requests_total", 0)
        compiles = snapshot["counters"].get("fragments_compiled", 0)
        hits = snapshot["counters"].get("cache_hits", 0)
        lookups = hits + snapshot["counters"].get("cache_misses", 0)
        batches = snapshot["counters"].get("batches_total", 0)
        snapshot["derived"] = {
            "cache_hit_rate": hits / lookups if lookups else 0.0,
            "mean_batch_size": requests / batches if batches else 0.0,
            "dedup_ratio": (
                snapshot["counters"].get("ops_submitted", 0)
                / snapshot["counters"].get("ops_applied", 1)
                if snapshot["counters"].get("ops_applied", 0)
                else 1.0
            ),
            "fragments_compiled": compiles,
        }
        return snapshot

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.stats(), indent=indent, sort_keys=True)


def format_stats(stats: dict) -> str:
    """Human-readable rendering of a ``stats()`` snapshot."""
    lines = ["recompilation service stats", ""]
    derived = stats.get("derived", {})
    lines.append(f"{'cache hit rate':>22}: {derived.get('cache_hit_rate', 0):.1%}")
    lines.append(f"{'mean batch size':>22}: {derived.get('mean_batch_size', 0):.2f}")
    lines.append(f"{'dedup ratio':>22}: {derived.get('dedup_ratio', 1):.2f}x")
    breaker = stats.get("breaker")
    if breaker:
        lines.append(
            f"{'breaker':>22}: {breaker.get('state', '?')} "
            f"({breaker.get('opens', 0):g} opens, "
            f"{breaker.get('rejections', 0):g} rejections"
            + (f", retry in {breaker['retry_after_s']:.2f}s"
               if breaker.get("retry_after_s") else "")
            + ")"
        )
    queue = stats.get("queue")
    if queue:
        lines.append(
            f"{'shed':>22}: {queue.get('shed_total', 0):g} total "
            f"({queue.get('shed_expired', 0):g} expired, "
            f"{queue.get('shed_overflow', 0):g} overflow); "
            f"drain abandoned "
            f"{stats.get('counters', {}).get('drain_abandoned', 0):g}"
        )
    lines.append("")
    lines.append(f"{'counter':>22} | value")
    for name in sorted(stats.get("counters", {})):
        lines.append(f"{name:>22} | {stats['counters'][name]:g}")
    gauges = stats.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append(f"{'gauge':>22} | value")
        for name in sorted(gauges):
            lines.append(f"{name:>22} | {gauges[name]:g}")
    latency = stats.get("latency", {})
    if latency:
        lines.append("")
        lines.append(
            f"{'stage':>22} | {'count':>7} | {'mean':>8} | {'p50':>8} "
            f"| {'p90':>8} | {'p99':>8} | {'max':>8}"
        )
        for name in sorted(latency):
            s = latency[name]
            lines.append(
                f"{name:>22} | {s['count']:>7.0f} | {s['mean_ms']:>8.2f} "
                f"| {s['p50_ms']:>8.2f} | {s['p90_ms']:>8.2f} "
                f"| {s['p99_ms']:>8.2f} | {s['max_ms']:>8.2f}"
            )
    return "\n".join(lines)
