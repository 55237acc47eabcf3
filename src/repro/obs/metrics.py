"""Labeled metrics: counters, gauges, fixed-bucket histograms, registry.

Two complementary halves:

* **Instruments** — :class:`Counter`, :class:`Gauge`, and
  :class:`Histogram`, created on demand through the registry and keyed
  by ``(name, labels)``;
* **Stat groups** — the tree's existing stats dataclasses (RPC, pool,
  HA, faults, journal) subclass :class:`MetricSet` and register with the
  same registry, so one :meth:`MetricsRegistry.reset` zeroes *every*
  counter in the system and one :meth:`MetricsRegistry.snapshot` dumps
  them all under a flat, deterministic naming scheme::

      name{label=value,...}            counters and gauges
      name.field{label=value,...}      stat-group fields
      name.le_<bound> / .sum / .count  histogram components

:class:`MetricSet.reset` works by rebuilding a pristine instance and
copying its state over — no per-field reflection — so a newly added
counter field can never be silently left out of a reset path, which is
the drift the earlier reflection helper existed to prevent.

This module imports nothing from the rest of :mod:`repro`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


class Counter:
    """A count that only ever goes up."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def snapshot_into(self, key: str, out: Dict[str, Any]) -> None:
        out[key] = self.value


class Gauge:
    """A value that can move in either direction."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def reset(self) -> None:
        self.value = 0.0

    def snapshot_into(self, key: str, out: Dict[str, Any]) -> None:
        out[key] = self.value


def _format_bound(bound: float) -> str:
    return f"{bound:g}"


class Histogram:
    """A fixed-bucket histogram with inclusive upper bounds.

    ``bounds`` are ascending upper edges; a value ``v`` lands in the
    first bucket with ``v <= bound`` (so a value exactly on a boundary
    counts in that bucket), and values above the last bound land in the
    implicit ``+inf`` overflow bucket.  Cumulative ``sum`` and ``count``
    ride along for mean computation.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        ordered = tuple(float(b) for b in bounds)
        if not ordered:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(ordered, ordered[1:])):
            raise ValueError(f"bucket bounds must be ascending: {ordered}")
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def quantile(self, q: float) -> float:
        """Nearest-bucket upper-edge estimate of the ``q``-quantile.

        Walks the cumulative counts to the nearest-rank observation and
        returns that bucket's *upper edge* — a conservative (never
        under-reporting) tail estimate, which is the right bias for SLO
        checks.  An empty histogram reports 0.0 (the wave-report empty
        sentinel); a rank landing in the ``+inf`` overflow bucket
        reports ``inf``, making "the tail escaped the instrumented
        range" impossible to mistake for health.

        Rank semantics match :func:`repro.common.stats.percentile`
        (nearest rank, with the ceil taken against the intended decimal
        value of ``q`` rather than its binary float representation, so
        q=0.999 over 1000 observations is rank 999, not 1000).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile wants q in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        scaled = q * self.count
        nearest = round(scaled)
        if abs(scaled - nearest) <= 1e-9 * max(1.0, nearest):
            rank = nearest
        else:
            rank = int(scaled) + 1
        rank = max(1, min(rank, self.count))
        cumulative = 0
        for index, bound in enumerate(self.bounds):
            cumulative += self.counts[index]
            if cumulative >= rank:
                return bound
        return float("inf")

    def bucket_counts(self) -> Dict[str, int]:
        """Per-bucket counts keyed by formatted bound (plus ``inf``)."""
        out = {
            _format_bound(bound): self.counts[index]
            for index, bound in enumerate(self.bounds)
        }
        out["inf"] = self.counts[-1]
        return out

    def snapshot_into(self, key: str, out: Dict[str, Any]) -> None:
        base, _, labels = key.partition("{")
        suffix = f"{{{labels}" if labels else ""
        for bound, count in self.bucket_counts().items():
            out[f"{base}.le_{bound}{suffix}"] = count
        out[f"{base}.sum{suffix}"] = self.sum
        out[f"{base}.count{suffix}"] = self.count


class MetricSet:
    """Mixin giving a stats object uniform reset/snapshot behaviour.

    Subclasses are plain (data)classes whose numeric attributes are the
    metrics.  ``reset`` rebuilds a default-constructed instance and
    copies its attribute dict over, so *every* field — present and
    future — returns to its declared default without any field
    enumeration to forget one.
    """

    def reset(self) -> None:
        self.__dict__.update(type(self)().__dict__)

    def metrics(self) -> Dict[str, Any]:
        """Public numeric attributes, in declaration order."""
        return {
            name: value
            for name, value in vars(self).items()
            if not name.startswith("_")
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
        }


#: A callback group: ``snapshot()`` returns ``field → value``; ``reset``
#: is optional (derived/externally-owned values skip it).
_Callback = Tuple[Callable[[], Dict[str, Any]], Optional[Callable[[], None]]]


def _label_suffix(labels: Dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{{{inner}}}"


class MetricsRegistry:
    """One reset and one snapshot for every metric in the system.

    Instruments are get-or-create by ``(name, labels)``; stat groups and
    callbacks register under the same key space with *replace* semantics
    (a fresh client re-registers its pool and journal over the old
    ones).  :meth:`snapshot` returns a flat ``key → number`` dict with
    deterministically sorted keys, ready for JSON dumping.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}
        self._groups: Dict[str, MetricSet] = {}
        self._callbacks: Dict[str, _Callback] = {}

    # -- instruments -------------------------------------------------------

    def _instrument(
        self, cls: type, name: str, labels: Dict[str, Any], *args: Any
    ) -> Any:
        key = name + _label_suffix(labels)
        existing = self._instruments.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {key!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}"
                )
            return existing
        instrument = cls(*args)
        self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._instrument(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._instrument(Gauge, name, labels)

    def histogram(
        self, name: str, *, buckets: Sequence[float], **labels: Any
    ) -> Histogram:
        histogram = self._instrument(Histogram, name, labels, buckets)
        if histogram.bounds != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{histogram.bounds}"
            )
        return histogram

    # -- stat groups -------------------------------------------------------

    def register(self, name: str, group: MetricSet, **labels: Any) -> MetricSet:
        """Adopt a stat group (replacing any previous one at this key)."""
        if not isinstance(group, MetricSet):
            raise TypeError(
                f"register() wants a MetricSet, got {type(group).__name__}; "
                f"use register_callback for ad-hoc sources"
            )
        self._groups[name + _label_suffix(labels)] = group
        return group

    def register_callback(
        self,
        name: str,
        snapshot: Callable[[], Dict[str, Any]],
        *,
        reset: Optional[Callable[[], None]] = None,
        **labels: Any,
    ) -> None:
        """Adopt an external metric source (breaker trips, retry spend).

        ``reset=None`` marks a derived/externally-owned value that a
        registry reset must not touch (e.g. circuit-breaker trip counts,
        which belong to the breaker's lifecycle, not the experiment's).
        """
        self._callbacks[name + _label_suffix(labels)] = (snapshot, reset)

    def groups(self) -> List[str]:
        return sorted(self._groups)

    # -- the single reset / snapshot protocol ------------------------------

    def reset(self) -> None:
        """Zero every instrument, group, and resettable callback."""
        for instrument in self._instruments.values():
            instrument.reset()
        for group in self._groups.values():
            group.reset()
        for _, reset in self._callbacks.values():
            if reset is not None:
                reset()

    def snapshot(self) -> Dict[str, Any]:
        """Flat ``key → number`` view of everything, keys sorted."""
        out: Dict[str, Any] = {}
        for key, instrument in self._instruments.items():
            instrument.snapshot_into(key, out)
        for key, group in self._groups.items():
            base, _, labels = key.partition("{")
            suffix = f"{{{labels}" if labels else ""
            for field, value in group.metrics().items():
                out[f"{base}.{field}{suffix}"] = value
        for key, (snapshot, _) in self._callbacks.items():
            base, _, labels = key.partition("{")
            suffix = f"{{{labels}" if labels else ""
            for field, value in snapshot().items():
                out[f"{base}.{field}{suffix}"] = value
        return dict(sorted(out.items()))

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(instruments={len(self._instruments)}, "
            f"groups={len(self._groups)}, callbacks={len(self._callbacks)})"
        )
