"""Small deterministic statistics helpers shared across layers.

:func:`percentile` is the *single* nearest-rank implementation in the
tree.  Both the fleet wave reports (:mod:`repro.net.topology`) and the
hedging deadline estimator (:mod:`repro.net.ha`) quote percentiles; they
must agree on the semantics for tiny samples (n = 1, 2) or a hedge
deadline derived from one observation would disagree with the p99 the
report prints for the same data.  Keeping one helper keeps them honest.

Counters live elsewhere: every stats dataclass subclasses
:class:`repro.obs.metrics.MetricSet` and registers with a
:class:`repro.obs.metrics.MetricsRegistry`.  They are never reset; a
reader diffs two reads.
"""

from __future__ import annotations

import math
from typing import List, Tuple


class EmptySampleError(ValueError):
    """A statistic was requested over zero observations.

    Subclasses :class:`ValueError` so callers that already guarded with
    ``except ValueError`` keep working, while new code (wave reports for
    zero-client or all-shed waves) can catch the precise condition
    instead of an :class:`IndexError` escaping from rank arithmetic.
    """


#: Relative slack when deciding whether ``q/100 * n`` *is* an integer
#: rank.  ``99.9 / 100`` is not representable in binary floating point
#: (it rounds up to ``0.9990000000000001``), so a naive ``ceil`` would
#: turn p99.9 over 1000 samples into rank 1000 — i.e. silently report
#: p100 exactly where deep-tail reports care most.
_RANK_EPSILON = 1e-9


def percentile(values: "List[float] | Tuple[float, ...]", q: float) -> float:
    """Nearest-rank percentile (deterministic; no interpolation).

    ``q`` is in [0, 100] and may be fractional (p99.9 for deep tails).
    The nearest-rank definition keeps reports reproducible
    byte-for-byte across runs and platforms.  Boundary semantics for
    tiny samples: with one value every ``q`` returns it; with two values
    ``q <= 50`` returns the smaller and ``q > 50`` the larger
    (rank = max(1, ceil(q/100 * n)), with the ceil taken against the
    *intended* decimal value of ``q`` rather than its binary float
    representation, so p99.9 over 1000 samples is rank 999, not 1000).
    An empty sample raises :class:`EmptySampleError` — there is no
    meaningful sentinel a percentile could return.
    """
    if not values:
        raise EmptySampleError("percentile of an empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    scaled = q / 100.0 * len(ordered)
    nearest = round(scaled)
    if abs(scaled - nearest) <= _RANK_EPSILON * max(1.0, nearest):
        rank = nearest
    else:
        rank = math.ceil(scaled)
    rank = max(1, rank)
    return ordered[min(rank, len(ordered)) - 1]


def percentile_or_zero(values: "List[float] | Tuple[float, ...]", q: float) -> float:
    """:func:`percentile`, or 0.0 for an empty sample: a report over a
    wave that served nothing (zero clients, every client shed) prints
    0.0 rather than raising :class:`EmptySampleError` mid-report."""
    return percentile(values, q) if values else 0.0
