"""Stat groups and the registry that snapshots them.

Every counter in the system is a field of a stats dataclass (RPC, pool,
HA, faults, journal, …) that subclasses :class:`MetricSet`.  Counters
only grow: nothing resets them, and a reader that wants one epoch — a
deploy, a wave, a FaaS run — diffs a before/after read.  The groups
register with a :class:`MetricsRegistry`, whose :meth:`~MetricsRegistry.
snapshot` dumps them all, plus snapshot-only callbacks (breaker trips,
retry spend), under a flat, deterministic naming scheme::

      name.field{label=value,...}

This module imports nothing from the rest of :mod:`repro`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict


class MetricSet:
    """Mixin giving a stats object a uniform snapshot view.

    Subclasses are plain (data)classes whose numeric attributes are the
    metrics.
    """

    def metrics(self) -> Dict[str, Any]:
        """Public numeric attributes, in declaration order."""
        return {
            name: value
            for name, value in vars(self).items()
            if not name.startswith("_")
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
        }


def _label_suffix(labels: Dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{{{inner}}}"


class MetricsRegistry:
    """One snapshot for every metric in the system.

    Stat groups and callbacks register under one key space with
    *replace* semantics (a fresh client re-registers its pool and
    journal over the old ones).  :meth:`snapshot` returns a flat
    ``key → number`` dict with deterministically sorted keys, ready for
    JSON dumping.
    """

    def __init__(self) -> None:
        self._groups: Dict[str, MetricSet] = {}
        self._callbacks: Dict[str, Callable[[], Dict[str, Any]]] = {}

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
        self, name: str, snapshot: Callable[[], Dict[str, Any]], **labels: Any
    ) -> None:
        """Adopt an external metric source (breaker trips, retry spend),
        read each time the registry is snapshotted."""
        self._callbacks[name + _label_suffix(labels)] = snapshot

    def snapshot(self) -> Dict[str, Any]:
        """Flat ``key → number`` view of everything, keys sorted."""
        out: Dict[str, Any] = {}
        sources = [(key, group.metrics) for key, group in self._groups.items()]
        sources.extend(self._callbacks.items())
        for key, read in sources:
            base, _, labels = key.partition("{")
            suffix = f"{{{labels}" if labels else ""
            for field, value in read().items():
                out[f"{base}.{field}{suffix}"] = value
        return dict(sorted(out.items()))

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(groups={len(self._groups)}, "
            f"callbacks={len(self._callbacks)})"
        )
