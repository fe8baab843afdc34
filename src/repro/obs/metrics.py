"""A standalone registry of named counters and gauges.

Nothing in the library writes here: each event is counted once, as an
attribute of the object that owns it (``IOStats`` on the block store,
``splits`` / ``rebuilds`` on the structures, the pool's hit counts,
``ReplicaSet.stats()``, the admission controller's ``snapshot()``, the
fault schedule's event log), and ``ServingEngine.stats()`` gathers the
serving tier's per engine.  The registry is process-global and
unlocked; it is kept as a utility for ad-hoc instrumentation.

Metrics are identified by a name plus free-form labels, for example
``structure=`` and ``op=``::

    counter("splits", structure="external_pst", op="insert").inc()
    gauge("hit_rate", structure="bufferpool").set(pool.hit_rate)
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, str]) -> MetricKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_key(key: MetricKey) -> str:
    """Render a metric key as ``name{k=v,...}`` (stable label order)."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("key", "value")
    kind = "counter"

    def __init__(self, key: MetricKey):
        self.key = key
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the counter."""
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({format_key(self.key)}={self.value})"


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("key", "value")
    kind = "gauge"

    def __init__(self, key: MetricKey):
        self.key = key
        self.value = 0.0

    def set(self, v: float) -> None:
        """Overwrite the gauge with ``v``."""
        self.value = v

    def __repr__(self) -> str:
        return f"Gauge({format_key(self.key)}={self.value})"


class MetricsRegistry:
    """Get-or-create registry of :class:`Counter` and :class:`Gauge`.

    A metric is uniquely identified by ``(name, labels)``; asking for an
    existing name with a different kind raises ``TypeError`` so a gauge
    can never silently shadow a counter.
    """

    def __init__(self) -> None:
        self._metrics: "Dict[MetricKey, object]" = {}

    def counter(self, name: str, **labels: str) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        return self._get(Gauge, name, labels)

    def _get(self, cls, name: str, labels: Dict[str, str]):
        key = _key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(key)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {format_key(key)} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[object]:
        return iter(self._metrics.values())

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{rendered_key: value}`` view, sorted by key."""
        return {
            format_key(m.key): m.value
            for m in sorted(self._metrics.values(), key=lambda m: m.key)
        }

    def rows(self) -> List[Tuple[str, str, float]]:
        """``(kind, rendered key, value)`` rows, sorted by key."""
        return [
            (m.kind, format_key(m.key), m.value)
            for m in sorted(self._metrics.values(), key=lambda m: m.key)
        ]

    def clear(self) -> None:
        """Drop every metric (tests and bench isolation)."""
        self._metrics.clear()


#: Process-wide default registry; structures record here unless told
#: otherwise, and the bench exporters snapshot it per experiment.
DEFAULT_REGISTRY = MetricsRegistry()


def counter(name: str, **labels: str) -> Counter:
    """Shorthand for ``DEFAULT_REGISTRY.counter(...)``."""
    return DEFAULT_REGISTRY.counter(name, **labels)


def gauge(name: str, **labels: str) -> Gauge:
    """Shorthand for ``DEFAULT_REGISTRY.gauge(...)``."""
    return DEFAULT_REGISTRY.gauge(name, **labels)
