"""Metrics registry: counters, gauges and fixed-bucket histograms.

Two producers feed a :class:`MetricsRegistry`:

* :class:`MetricsSink` aggregates live bus events — per scheme (the
  bar label), per region, and per-epoch distributions (epoch duration,
  stall length) in fixed-bucket histograms.
* :func:`engine_counters` snapshots the hardware-model counters an
  engine accumulated (cache hits/misses per level, violations by
  reason, commit/squash totals, hwsync and predictor activity) whether
  or not a bus was attached.  The engine folds this snapshot into
  ``SimResult.counters`` at the end of every run, which is how the
  experiment runner's ``--metrics-out`` summary gets simulator counters
  even for cached results.

Metric naming: ``name{label=value,...}`` in flattened form, labels
sorted, so JSON output is deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.events import Event
from repro.tlssim.stats import merge_attribution

#: Default histogram buckets (simulated cycles): roughly logarithmic,
#: wide enough for both stall lengths and whole-epoch durations.
DEFAULT_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0, 25000.0,
)


def _metric_key(name: str, labels: Dict[str, str]) -> Tuple:
    return (name, tuple(sorted(labels.items())))


def _flat_name(name: str, labels: Dict[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can move both ways (e.g. a high-water mark)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def max(self, value: float) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket histogram with cumulative counts plus sum/count.

    ``buckets`` are upper bounds; an implicit +inf bucket catches the
    tail.  ``counts[i]`` is the number of observations ``<= buckets[i]``
    (non-cumulative per-bucket counts, Prometheus-style ``le`` bounds
    are reconstructed by exporters if needed).
    """

    __slots__ = ("name", "labels", "buckets", "counts", "overflow",
                 "total", "count")

    def __init__(
        self,
        name: str,
        labels: Dict[str, str],
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        if tuple(sorted(buckets)) != tuple(buckets):
            raise ValueError("histogram buckets must be sorted")
        self.name = name
        self.labels = labels
        self.buckets = tuple(buckets)
        self.counts = [0] * len(self.buckets)
        self.overflow = 0
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.overflow += 1

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (0..100).

        Linear interpolation inside the containing bucket, the standard
        fixed-bucket estimate; observations past the last bound report
        the last finite bound (the histogram records no maximum).
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q}")
        if self.count == 0:
            return 0.0
        target = (q / 100.0) * self.count
        cumulative = 0
        lower = 0.0
        for bound, n in zip(self.buckets, self.counts):
            if n:
                if cumulative + n >= target:
                    fraction = max(0.0, min(1.0, (target - cumulative) / n))
                    return lower + (bound - lower) * fraction
                cumulative += n
            lower = bound
        return self.buckets[-1]

    def summary(self) -> Dict[str, float]:
        """The p50/p95/p99 summary reported alongside sum/count."""
        return {
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """Registers and holds metrics; get-or-create semantics."""

    def __init__(self):
        self._metrics: Dict[Tuple, object] = {}

    def _get(self, factory, name: str, labels: Dict[str, str], **kwargs):
        key = _metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(name, labels, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: Tuple[float, ...] = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def __iter__(self):
        for _key, metric in sorted(
            self._metrics.items(), key=lambda item: item[0]
        ):
            yield metric

    def __len__(self) -> int:
        return len(self._metrics)

    def flat(self) -> Dict[str, float]:
        """Counters and gauges as ``{flat_name: value}`` (no histograms)."""
        out: Dict[str, float] = {}
        for metric in self:
            if isinstance(metric, (Counter, Gauge)):
                out[_flat_name(metric.name, metric.labels)] = metric.value
        return out

    def to_dict(self) -> Dict:
        """Full JSON-serializable dump, histograms included."""
        counters: List[Dict] = []
        gauges: List[Dict] = []
        histograms: List[Dict] = []
        for metric in self:
            entry = {"name": metric.name, "labels": dict(metric.labels)}
            if isinstance(metric, Counter):
                entry["value"] = metric.value
                counters.append(entry)
            elif isinstance(metric, Gauge):
                entry["value"] = metric.value
                gauges.append(entry)
            else:
                entry.update(
                    buckets=list(metric.buckets),
                    counts=list(metric.counts),
                    overflow=metric.overflow,
                    sum=metric.total,
                    count=metric.count,
                    **metric.summary(),
                )
                histograms.append(entry)
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


class MetricsSink:
    """Bus sink aggregating events into a registry.

    Labels every metric with the ``scheme`` (bar label) when given, and
    counts events per region ordinal so multi-region programs can be
    broken down.  Epoch duration and stall-length distributions land in
    fixed-bucket histograms.
    """

    def __init__(self, registry: MetricsRegistry, scheme: Optional[str] = None):
        self.registry = registry
        self.scheme = scheme
        self._region = -1
        self._epoch_starts: Dict[Tuple[int, int], float] = {}

    def _labels(self, **extra) -> Dict[str, str]:
        labels = dict(extra)
        if self.scheme is not None:
            labels["scheme"] = self.scheme
        if self._region >= 0:
            labels["region"] = str(self._region)
        return labels

    def on_event(self, event: Event) -> None:
        registry = self.registry
        kind = event.kind
        if kind == "region_start":
            self._region += 1
            self._epoch_starts.clear()
        registry.counter("events", **self._labels(kind=kind)).inc()
        if kind == "epoch_start":
            self._epoch_starts[(event.epoch, event.generation)] = event.time
        elif kind in ("commit", "squash"):
            start = self._epoch_starts.pop(
                (event.epoch, event.generation), None
            )
            if start is not None:
                registry.histogram(
                    "epoch_cycles", **self._labels(outcome=kind)
                ).observe(max(0.0, event.time - start))
        elif kind == "violation":
            registry.counter(
                "violations",
                **self._labels(reason=str(event.fields.get("reason"))),
            ).inc()
        elif kind in ("fwd_unblock", "sync_unblock"):
            stall = float(event.fields.get("stall", 0.0))
            registry.histogram(
                "stall_cycles",
                **self._labels(cause="fwd" if kind == "fwd_unblock" else "sync"),
            ).observe(stall)
        elif kind == "cache_miss":
            registry.counter(
                "cache_miss_events",
                **self._labels(level=str(event.fields.get("level"))),
            ).inc()
        elif kind == "sab_overflow":
            registry.counter("sab_overflows", **self._labels()).inc()


def engine_counters(engine) -> Dict[str, float]:
    """Flat end-of-run counter snapshot of a ``TLSEngine``.

    Works with or without a bus attached (it reads the hardware-model
    counters, not the event stream), so every ``SimResult`` carries it.
    """
    registry = MetricsRegistry()
    caches = engine.caches
    registry.counter("cache_hits", level="l1").inc(
        sum(c.hits for c in caches.l1)
    )
    registry.counter("cache_misses", level="l1").inc(
        sum(c.misses for c in caches.l1)
    )
    registry.counter("cache_hits", level="l2").inc(caches.l2.hits)
    registry.counter("cache_misses", level="l2").inc(caches.l2.misses)
    committed = 0
    squashed = 0
    max_sab = 0
    for region in engine.regions:
        committed += region.epochs_committed
        squashed += region.epochs_squashed
        max_sab = max(max_sab, region.max_signal_buffer)
        for violation in region.violations:
            registry.counter("violations", reason=violation.reason).inc()
    registry.counter("epochs_committed").inc(committed)
    registry.counter("epochs_squashed").inc(squashed)
    registry.gauge("signal_buffer_high_water").max(max_sab)
    registry.counter("hwsync_insertions").inc(engine.hw_table.insertions)
    registry.counter("hwsync_resets").inc(engine.hw_table.resets)
    registry.counter("predictions_used").inc(
        engine.predictor.predictions_used
    )
    registry.counter("mispredictions").inc(engine.predictor.mispredictions)
    # Fine-grained slot attribution (cause -> slots) summed over regions,
    # plus the accounting-identity health signals: 'slots_unattributed'
    # is the residual total - sum(attribution) (exactly 0.0 when the
    # identity holds) and 'slots_imbalance' the magnitude by which the
    # coarse busy/fail/sync categories overshoot a region total (the
    # condition strict accounting warns about).
    unattributed = 0.0
    imbalance = 0.0
    for region in engine.regions:
        unattributed += region.slots.total - sum(region.attribution.values())
        imbalance += region.slots.imbalance
    for cause, slots in merge_attribution(engine.regions).items():
        registry.gauge("slots", cause=cause).set(slots)
    registry.gauge("slots_unattributed").set(unattributed)
    registry.gauge("slots_imbalance").set(imbalance)
    # Exact stall-length percentiles via the registry's fixed-bucket
    # estimate, so the --metrics-out sim section carries them even for
    # runs without a bus attached.
    if engine._stall_samples:
        stalls = Histogram("stall_cycles", {})
        for sample in engine._stall_samples:
            stalls.observe(sample)
        for name, value in stalls.summary().items():
            registry.gauge(f"stall_cycles_{name}").set(value)
    return registry.flat()


# ---------------------------------------------------------------------------
# process-wide registry
# ---------------------------------------------------------------------------

_PROCESS_REGISTRY = MetricsRegistry()


def process_registry() -> MetricsRegistry:
    """Process-lifetime registry for harness-level metrics.

    Simulation metrics go through per-run registries (see above); this
    one collects cross-cutting counters that are not tied to a single
    engine run — e.g. the artifact store's hit/miss/corruption counts
    (:mod:`repro.experiments.artifacts`).  Workers each have their own.
    """
    return _PROCESS_REGISTRY
