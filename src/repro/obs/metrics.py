"""Metrics registry: counters, gauges and histograms.

The registry is the numeric half of :mod:`repro.obs`.  Instruments are
named (dotted names, ``alloc.placed``) and optionally labeled
(``node=2, attribute="Bandwidth"``); each distinct (name, labels) pair is
one time series.  Invariants the property tests pin down:

* **counters are monotone** — ``inc`` rejects negative deltas, so a
  counter's value never decreases;
* **histogram conservation** — ``sum`` equals the exact sum of every
  observation fed to ``observe`` (and ``count`` their number);
* rendering (:func:`render_metrics`, Prometheus text format) never
  mutates the instruments it renders.

Everything here is deliberately dependency-free: the registry must be
importable from the lowest layers (``repro.core.api``) without
dragging the rest of the package in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_metrics",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds (generic powers-of-two-ish scale
#: suitable for ranks, depths and small counts; time-valued histograms
#: pass their own bounds).
DEFAULT_BUCKETS: tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64)

LabelKey = tuple[tuple[str, object], ...]


def _label_key(labels: dict[str, object]) -> LabelKey:
    # Lazy label formatting: values stay raw here (no per-call str()) and
    # are stringified only at export time (as_dict / render_metrics).
    # Kwargs keys are unique, so the sort never compares two values.
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


def _labels_as_strs(labels: LabelKey) -> tuple[tuple[str, str], ...]:
    return tuple((k, str(v)) for k, v in labels)


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    labels: LabelKey = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount


@dataclass
class Gauge:
    """A value that can go up and down (last write wins)."""

    name: str
    labels: LabelKey = ()
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta


@dataclass
class Histogram:
    """Cumulative-bucket histogram with an exact sum.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``; a final
    implicit +Inf bucket catches the rest.  ``sum`` accumulates the raw
    observations so ``sum == Σ observe(v)`` holds exactly (the property
    suite checks this with float-exact arithmetic on integer inputs).
    """

    name: str
    labels: LabelKey = ()
    bounds: tuple[float, ...] = DEFAULT_BUCKETS
    bucket_counts: list[int] = field(default_factory=list)
    count: int = 0
    sum: float = 0.0

    def __post_init__(self) -> None:
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram {self.name}: bounds must be sorted")
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """All instruments of one process, keyed by (name, labels).

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    for a (name, labels) pair creates the instrument, later calls return
    the same object.  A name is bound to one instrument kind; reusing it
    with another kind raises.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelKey], object] = {}
        self._kinds: dict[str, type] = {}

    def _get(self, cls, name: str, labels: dict, **kwargs):
        bound = self._kinds.setdefault(name, cls)
        if bound is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {bound.__name__}"
            )
        key = (name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(name=name, labels=key[1], **kwargs)
            self._instruments[key] = inst
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, *, bounds: tuple[float, ...] = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        return self._get(Histogram, name, labels, bounds=bounds)

    # ------------------------------------------------------------------
    def instruments(self) -> tuple[object, ...]:
        """Every instrument, sorted by (name, labels) for stable output."""
        # Labels keep raw (possibly mixed-type) values; sort on their
        # string form so e.g. node=2 and node="split" series compare.
        return tuple(
            self._instruments[k]
            for k in sorted(
                self._instruments,
                key=lambda k: (k[0], _labels_as_strs(k[1])),
            )
        )

    def value(self, name: str, **labels) -> float:
        """The current value of a counter/gauge (0.0 when never touched)."""
        inst = self._instruments.get((name, _label_key(labels)))
        if inst is None:
            return 0.0
        return inst.value  # type: ignore[union-attr]

    def as_dict(self) -> dict:
        """Plain-data snapshot (JSON-safe), for archiving and tests."""
        out: dict[str, list] = {}
        for inst in self.instruments():
            entry: dict[str, object] = {
                "labels": dict(_labels_as_strs(inst.labels))  # type: ignore[attr-defined]
            }
            if isinstance(inst, Histogram):
                entry.update(
                    kind="histogram",
                    count=inst.count,
                    sum=inst.sum,
                    bounds=list(inst.bounds),
                    buckets=list(inst.bucket_counts),
                )
            elif isinstance(inst, Gauge):
                entry.update(kind="gauge", value=inst.value)
            else:
                entry.update(kind="counter", value=inst.value)  # type: ignore[union-attr]
            out.setdefault(inst.name, []).append(entry)  # type: ignore[attr-defined]
        return out


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_labels(labels: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = _labels_as_strs(labels) + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


def render_metrics(registry: MetricsRegistry) -> str:
    """Prometheus-style text exposition of every instrument."""
    lines: list[str] = []
    seen_types: set[str] = set()
    for inst in registry.instruments():
        name = _prom_name(inst.name)  # type: ignore[attr-defined]
        if isinstance(inst, Histogram):
            if name not in seen_types:
                lines.append(f"# TYPE {name} histogram")
                seen_types.add(name)
            cumulative = 0
            for bound, count in zip(inst.bounds, inst.bucket_counts):
                cumulative += count
                lines.append(
                    f"{name}_bucket"
                    f"{_prom_labels(inst.labels, (('le', repr(float(bound))),))}"
                    f" {cumulative}"
                )
            lines.append(
                f"{name}_bucket{_prom_labels(inst.labels, (('le', '+Inf'),))}"
                f" {inst.count}"
            )
            lines.append(f"{name}_sum{_prom_labels(inst.labels)} {inst.sum}")
            lines.append(f"{name}_count{_prom_labels(inst.labels)} {inst.count}")
        elif isinstance(inst, Gauge):
            if name not in seen_types:
                lines.append(f"# TYPE {name} gauge")
                seen_types.add(name)
            lines.append(f"{name}{_prom_labels(inst.labels)} {inst.value}")
        else:
            if name not in seen_types:
                lines.append(f"# TYPE {name}_total counter")
                seen_types.add(name)
            lines.append(
                f"{name}_total{_prom_labels(inst.labels)} {inst.value}"  # type: ignore[attr-defined]
            )
    return "\n".join(lines) + ("\n" if lines else "")
