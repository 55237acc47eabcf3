"""Deployment schedules: who deploys what, in what order — and when.

The paper measures single deployments and one version sequence (Fig. 10).
Real nodes see a *mix*: popular images recur (Docker Hub popularity is
heavy-tailed — the paper's own dataset is the "top 50 most popular"
series), versions roll forward, and occasionally a brand-new series
appears.  A :class:`ScheduleBuilder` generates such a stream
deterministically so cache-behaviour experiments run on realistic
arrival patterns.

For the FaaS workload (:mod:`repro.net.faas`) the builder also
generates *timed* arrival processes: :meth:`ScheduleBuilder.
invocation_stream` draws Poisson inter-arrival gaps whose rate is
piecewise-constant over seeded :class:`BurstWindow` spikes, assigning
each arrival a Zipf-popular function backed by a corpus image.  The
stream is a pure function of ``(corpus, seed, parameters)`` — the
virtual-time arrival instants are part of the stream, so two runs see
byte-identical invocation timelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.common.rng import rng_for
from repro.workloads.corpus import Corpus, GeneratedImage


@dataclass(frozen=True)
class ScheduledDeployment:
    """One entry in a node's deployment stream."""

    position: int
    image: GeneratedImage
    #: True when this reference was deployed earlier in the schedule.
    is_repeat: bool


@dataclass(frozen=True)
class BurstWindow:
    """A traffic spike: the arrival rate is multiplied inside the window.

    ``factor=10.0`` models the ISSUE's "10x invocation burst"; windows
    may overlap, in which case their factors multiply.
    """

    start_s: float
    duration_s: float
    factor: float

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError("burst start must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("burst duration must be positive")
        if self.factor <= 0:
            raise ValueError("burst factor must be positive")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def covers(self, at_s: float) -> bool:
        return self.start_s <= at_s < self.end_s


@dataclass(frozen=True)
class ScheduledInvocation:
    """One timed function invocation in a FaaS arrival stream."""

    position: int
    #: Virtual-time arrival instant (seconds from stream start).
    at_s: float
    #: Stable function name (``fn-0017``); many functions can share an
    #: image, mirroring layer reuse across Lambda functions.
    function: str
    image: GeneratedImage
    #: True when this *function* was invoked earlier in the stream (its
    #: node will see a warm start if the container is still resident).
    is_repeat: bool


def zipf_weights(n: int, skew: float = 1.0) -> List[float]:
    """Zipf popularity weights for ranks 1..n."""
    if n <= 0:
        raise ValueError("need at least one rank")
    if skew < 0:
        raise ValueError("skew must be non-negative")
    return [1.0 / (rank**skew) for rank in range(1, n + 1)]


class ScheduleBuilder:
    """Generates deterministic deployment streams from a corpus."""

    def __init__(self, corpus: Corpus, *, seed: str = "schedule") -> None:
        self.corpus = corpus
        self.seed = seed

    def popularity_stream(
        self,
        length: int,
        *,
        skew: float = 1.0,
    ) -> List[ScheduledDeployment]:
        """A node's day: zipf-popular series, versions drifting forward.

        Each event picks a series by popularity rank and deploys that
        series' *current* version on this node; with probability 0.15
        the series first advances to its next version
        (a release rolled out), so later events naturally mix repeats of
        hot images with fresh versions.
        """
        if length < 0:
            raise ValueError("length must be non-negative")
        series_names = sorted(self.corpus.by_series)
        weights = zipf_weights(len(series_names), skew)
        rng = rng_for(self.seed, "popularity", str(length), str(skew))
        current_version: Dict[str, int] = {name: 0 for name in series_names}
        seen: set = set()
        schedule: List[ScheduledDeployment] = []
        for position in range(length):
            name = rng.choices(series_names, weights=weights, k=1)[0]
            versions = self.corpus.by_series[name]
            if rng.random() < 0.15 and current_version[name] < len(versions) - 1:
                current_version[name] += 1
            image = versions[current_version[name]]
            reference = image.reference
            schedule.append(
                ScheduledDeployment(
                    position=position,
                    image=image,
                    is_repeat=reference in seen,
                )
            )
            seen.add(reference)
        return schedule

    def invocation_stream(
        self,
        *,
        duration_s: float,
        rate_per_s: float,
        functions: int,
        skew: float = 1.0,
        bursts: Sequence[BurstWindow] = (),
    ) -> List[ScheduledInvocation]:
        """A seeded Poisson/bursty FaaS arrival process over the corpus.

        Arrivals are a non-homogeneous Poisson process whose rate is
        ``rate_per_s`` scaled by every :class:`BurstWindow` covering the
        current instant (piecewise-constant thinning-free construction:
        each gap is drawn at the rate in force when it starts, which is
        exact for rates constant between arrivals and deterministic
        either way).  Each arrival invokes one of ``functions`` stable
        function names chosen by Zipf rank, and every function is bound
        to a corpus image round-robin by rank, so hot functions map to a
        small set of hot images.  Raises :class:`ValueError` on an empty
        corpus — a FaaS platform with no images has nothing to invoke.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if rate_per_s <= 0:
            raise ValueError("rate must be positive")
        if functions < 1:
            raise ValueError("need at least one function")
        images = [
            image
            for name in sorted(self.corpus.by_series)
            for image in self.corpus.by_series[name]
        ]
        if not images:
            raise ValueError("corpus has no images to invoke")
        weights = zipf_weights(functions, skew)
        function_names = [f"fn-{rank:04d}" for rank in range(functions)]
        rng = rng_for(
            self.seed,
            "invocations",
            str(duration_s),
            str(rate_per_s),
            str(functions),
            str(skew),
        )
        seen: set = set()
        stream: List[ScheduledInvocation] = []
        now = 0.0
        while True:
            rate = rate_per_s
            for burst in bursts:
                if burst.covers(now):
                    rate *= burst.factor
            now += rng.expovariate(rate)
            if now >= duration_s:
                break
            rank = rng.choices(range(functions), weights=weights, k=1)[0]
            function = function_names[rank]
            stream.append(
                ScheduledInvocation(
                    position=len(stream),
                    at_s=now,
                    function=function,
                    image=images[rank % len(images)],
                    is_repeat=function in seen,
                )
            )
            seen.add(function)
        return stream
