"""Process-wide metrics registry: counters, gauges, and labelled histograms.

The registry is the passive half of the telemetry layer: instruments write
into it, exporters (:mod:`repro.telemetry.sinks`) and the run manifest
(:mod:`repro.telemetry.manifest`) read a :meth:`MetricsRegistry.snapshot`
out of it. It is deliberately dependency-free and never touches any
simulation RNG — recording a metric cannot perturb a trajectory.

Model (a deliberately small subset of the Prometheus data model):

* a **metric family** has a name, a kind (``counter`` / ``gauge`` /
  ``histogram``) and a help string;
* each family holds one **series** per distinct label set
  (``kernel_dispatch_total{path="serial"}`` and
  ``kernel_dispatch_total{path="unit_take"}`` are two series of one
  family);
* counters accumulate, gauges hold the last value, histograms track
  ``count/sum/min/max`` exactly plus a bounded reservoir for quantiles
  (deterministic: the reservoir's sampling RNG is a private
  ``random.Random`` with a fixed seed, so snapshots are reproducible for
  a given observation sequence and no ``numpy`` stream is ever consumed).

Instances are cheap; the *process-wide* registry lives inside the active
:class:`~repro.telemetry.runtime.Telemetry` session (see
:func:`repro.telemetry.runtime.enable`).
"""

from __future__ import annotations

import math
import random
import re
from typing import Any, Iterator

from repro.errors import ConfigurationError

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "HISTOGRAM_QUANTILES",
    "quantile_key",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Quantiles reported by histogram snapshots and the Prometheus summary.
#: Exact up to the reservoir size (4096 observations), nearest-rank after.
HISTOGRAM_QUANTILES = (0.5, 0.95, 0.99)


def quantile_key(q: float) -> str:
    """Snapshot key for quantile ``q`` — ``p50``, ``p95``, ``p99``.

    ``round`` rather than ``int``: ``int(0.99 * 100)`` is 98 under binary
    floating point, which would silently mislabel the tail quantile.
    """
    return f"p{round(q * 100)}"

#: Reservoir size for histogram quantiles; below this, quantiles are exact.
_RESERVOIR_SIZE = 4096


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    """Canonical, hashable form of a label set (values stringified)."""
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Family:
    """Shared machinery of one named metric family."""

    kind = "abstract"

    def __init__(self, name: str, help_text: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help_text
        self._series: dict[tuple[tuple[str, str], ...], Any] = {}

    def _check_labels(self, labels: dict[str, Any]) -> None:
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ConfigurationError(f"invalid label name {label!r} on metric {self.name!r}")

    def series(self) -> Iterator[tuple[dict[str, str], Any]]:
        """Iterate ``(labels, raw series value)`` pairs, sorted by labels."""
        for key in sorted(self._series):
            yield dict(key), self._series[key]

    def __len__(self) -> int:
        return len(self._series)


class Counter(_Family):
    """Monotonically accumulating value, one per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ConfigurationError(f"counter {self.name!r} cannot decrease (inc by {amount})")
        self._check_labels(labels)
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        """Current value of one series (0.0 when never incremented)."""
        return float(self._series.get(_label_key(labels), 0.0))


class Gauge(_Family):
    """Last-write-wins value, one per label set."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        self._check_labels(labels)
        self._series[_label_key(labels)] = float(value)

    def value(self, **labels: Any) -> float:
        key = _label_key(labels)
        if key not in self._series:
            raise ConfigurationError(f"gauge {self.name!r} has no series for labels {dict(key)!r}")
        return float(self._series[key])


class _HistogramSeries:
    """One labelled histogram stream: exact count/sum/min/max + reservoir."""

    __slots__ = ("count", "total", "min", "max", "_reservoir", "_rng")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._reservoir: list[float] = []
        # Private, fixed-seed RNG: deterministic snapshots, and no shared
        # (least of all simulation) random state is ever consumed.
        self._rng = random.Random(0x7E1E)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._reservoir) < _RESERVOIR_SIZE:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < _RESERVOIR_SIZE:
                self._reservoir[slot] = value

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the (possibly sampled) observations."""
        if not self._reservoir:
            return math.nan
        ordered = sorted(self._reservoir)
        rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]


class Histogram(_Family):
    """Distribution of observed values, one stream per label set."""

    kind = "histogram"

    def observe(self, value: float, **labels: Any) -> None:
        self._check_labels(labels)
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries()
        series.observe(float(value))

    def stream(self, **labels: Any) -> _HistogramSeries | None:
        """The raw series for one label set (None when never observed)."""
        return self._series.get(_label_key(labels))


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Holds every metric family of one telemetry session.

    Families are created on first use and looked up by name thereafter;
    re-registering a name with a different kind is an error (a silent
    kind change would corrupt every exporter).
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def _family(self, name: str, kind: str, help_text: str) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _KINDS[kind](name, help_text)
        elif family.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        if help_text and not family.help:
            family.help = help_text
        return family

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._family(name, "counter", help_text)  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._family(name, "gauge", help_text)  # type: ignore[return-value]

    def histogram(self, name: str, help_text: str = "") -> Histogram:
        return self._family(name, "histogram", help_text)  # type: ignore[return-value]

    def get(self, name: str) -> _Family | None:
        """Look up a family without creating it."""
        return self._families.get(name)

    def families(self) -> Iterator[_Family]:
        """Iterate families sorted by name."""
        for name in sorted(self._families):
            yield self._families[name]

    def __len__(self) -> int:
        return len(self._families)

    def snapshot(self) -> dict[str, Any]:
        """Plain-data view of every family, for manifests and reports.

        Histogram series expose ``count/sum/min/max`` plus the quantiles in
        :data:`HISTOGRAM_QUANTILES` (keys ``p50``, ``p95``, ``p99``);
        counter and gauge series expose ``value``. Everything is
        JSON-serialisable.
        """
        out: dict[str, Any] = {}
        for family in self.families():
            series_list = []
            for labels, raw in family.series():
                entry: dict[str, Any] = {"labels": labels}
                if family.kind == "histogram":
                    entry["count"] = raw.count
                    entry["sum"] = raw.total
                    entry["min"] = raw.min if raw.count else None
                    entry["max"] = raw.max if raw.count else None
                    for q in HISTOGRAM_QUANTILES:
                        value = raw.quantile(q)
                        entry[quantile_key(q)] = None if math.isnan(value) else value
                else:
                    entry["value"] = raw
                series_list.append(entry)
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "series": series_list,
            }
        return out
