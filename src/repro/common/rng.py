"""Deterministic random number generation helpers.

The synthetic corpus (see :mod:`repro.workloads.corpus`) must be exactly
reproducible: the same seed must yield byte-identical fingerprints, sizes,
and access traces on every run and platform.  We therefore route all
randomness through :class:`random.Random` instances derived from explicit
string seeds, never the global generator.
"""

from __future__ import annotations

import random

from repro.common.hashing import stable_u64


def rng_for(*tokens: str) -> random.Random:
    """Return a ``random.Random`` seeded deterministically from tokens.

    Two calls with the same tokens yield generators producing identical
    streams, regardless of call order or interpreter hash randomization.
    """
    return random.Random(stable_u64(*tokens))


def bounded_lognormal(
    rng: random.Random, median: float, sigma: float, lo: float, hi: float
) -> float:
    """Sample a lognormal value with the given median, clamped to [lo, hi].

    File sizes in container images are heavy-tailed ("files are usually
    small", §V-B); a clamped lognormal reproduces that shape without
    extreme outliers destabilizing the calibration.
    """
    if lo > hi:
        raise ValueError(f"invalid bounds: lo={lo} > hi={hi}")
    value = rng.lognormvariate(_ln(median), sigma)
    return min(hi, max(lo, value))


def _ln(x: float) -> float:
    import math

    if x <= 0:
        raise ValueError(f"median must be positive, got {x}")
    return math.log(x)
