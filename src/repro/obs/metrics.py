"""A process-wide registry of counters, gauges and histograms.

Instrumented code resolves a metric by name (a dict lookup; creation is
lazy) and mutates it with plain attribute arithmetic — no locks.  A
handle is never kept at module scope, where :meth:`MetricsRegistry.
reset` would orphan it; an object that is built after the reset and
dies with its run (a site server) may bind its children once.  The
registry renders two ways:

* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` headers, one sample per
  line, ``{label="value"}`` selectors, ``_bucket``/``_sum``/``_count``
  series for histograms);
* :meth:`MetricsRegistry.to_dict` — a JSON-friendly nested dict (used
  by ``repro vet --json`` and the benchmark snapshot rows).

:data:`REGISTRY` is the default process-wide instance; everything in
:mod:`repro` records into it so one ``--metrics`` dump shows the whole
stack.  Tests reset it per-case with :meth:`MetricsRegistry.reset`.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Any, Iterable

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

# Seconds-scale latency buckets: 10us .. 10s.
DEFAULT_BUCKETS = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
)


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _selector(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{key}="{_escape(value)}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class _Metric:
    """Common behaviour: name/help validation and labeled children."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._children: dict[tuple[tuple[str, str], ...], _Metric] = {}
        #: ``labels()`` call items, as given -> the child they name.
        self._shortcuts: dict[tuple, _Metric] = {}
        self._labels: tuple[tuple[str, str], ...] = ()

    def labels(self, **labels: str):
        """The child of this metric carrying *labels* (created on first
        use); children share the parent's exposition block.

        A series is identified by its sorted ``(name, str(value))``
        pairs.  The call's own items are only a shortcut to it, so a
        repeated call costs one dict hit and the label names are
        validated when a shortcut is first taken, not on every call."""
        shortcut = tuple(labels.items())
        child = self._shortcuts.get(shortcut)
        if child is None:
            for key in labels:
                if not _LABEL_RE.match(key):
                    raise ValueError(f"invalid label name {key!r}")
            key = tuple(sorted((k, str(v)) for k, v in labels.items()))
            child = self._children.get(key)
            if child is None:
                child = self._new_child()
                child._labels = key
                self._children[key] = child
            self._shortcuts[shortcut] = child
        return child

    def _new_child(self) -> "_Metric":
        return type(self)(self.name, self.help)

    def _series(self) -> Iterable["_Metric"]:
        if not self._children:
            yield self
        else:
            for key in sorted(self._children):
                yield self._children[key]

    def expose(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for series in self._series():
            lines.extend(series._sample_lines())
        return lines

    def _sample_lines(self) -> list[str]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _value_dict(self) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"type": self.kind}
        if not self._children:
            payload["value"] = self._value_dict()
        else:
            payload["series"] = {
                _selector(key) or "{}": child._value_dict()
                for key, child in sorted(self._children.items())
            }
        return payload


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def _sample_lines(self) -> list[str]:
        return [
            f"{self.name}{_selector(self._labels)} "
            f"{_format_value(self.value)}"
        ]

    def _value_dict(self) -> Any:
        return self.value


class Gauge(_Metric):
    """A value that goes up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to *value*."""
        self.value = value

    def inc(self, amount: float = 1) -> None:
        """Add *amount* to the gauge."""
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        """Subtract *amount* from the gauge."""
        self.value -= amount

    def _sample_lines(self) -> list[str]:
        return [
            f"{self.name}{_selector(self._labels)} "
            f"{_format_value(self.value)}"
        ]

    def _value_dict(self) -> Any:
        return self.value


class Histogram(_Metric):
    """Cumulative-bucket histogram of observations (Prometheus style)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0

    def _new_child(self) -> "Histogram":
        return type(self)(self.name, self.help, buckets=self.buckets)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.sum += value
        index = bisect_left(self.buckets, value)
        if index < len(self.counts):
            self.counts[index] += 1

    def _sample_lines(self) -> list[str]:
        lines = []
        cumulative = 0
        for bound, count in zip(self.buckets, self.counts):
            cumulative += count
            le = 'le="%g"' % bound
            lines.append(
                f"{self.name}_bucket"
                f"{_selector(self._labels, le)} {cumulative}"
            )
        inf = 'le="+Inf"'
        lines.append(
            f"{self.name}_bucket"
            f"{_selector(self._labels, inf)} {self.count}"
        )
        lines.append(
            f"{self.name}_sum{_selector(self._labels)} "
            f"{_format_value(round(self.sum, 9))}"
        )
        lines.append(
            f"{self.name}_count{_selector(self._labels)} {self.count}"
        )
        return lines

    def _value_dict(self) -> Any:
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "buckets": {
                f"{bound:g}": count
                for bound, count in zip(self.buckets, self.counts)
            },
        }


class MetricsRegistry:
    """Named metrics, created lazily and rendered together."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter *name*."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge *name*."""
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram *name*."""
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        """The metric called *name*, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def to_prometheus(self) -> str:
        """The whole registry in the Prometheus text exposition format."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].expose())
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict[str, Any]:
        """The whole registry as a JSON-friendly dict."""
        return {
            name: metric.to_dict()
            for name, metric in sorted(self._metrics.items())
        }

    def reset(self, prefix: str | None = None) -> None:
        """Forget every metric, or — with *prefix* — only the metrics
        whose name starts with it (``reset(prefix="repro_cluster_")``
        is how :func:`repro.cluster.runtime.run_cluster` keeps
        back-to-back runs in one process from accumulating each
        other's counters).  No handle is held at module scope, and the
        per-run objects that bind their children are built after this
        call, so nothing keeps mutating an orphaned object."""
        if prefix is None:
            self._metrics.clear()
            return
        for name in [n for n in self._metrics if n.startswith(prefix)]:
            del self._metrics[name]


REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The default process-wide registry."""
    return REGISTRY
