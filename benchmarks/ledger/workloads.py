"""The six workloads: what they run, at which size, and why they exist.

A workload turns ``(seed, size)`` into inputs once (*prepare*), and then
for every pass builds a fresh world from those inputs (*build*, untimed),
runs the operations (*run*, the timed region) and checks the outputs
(*check*, untimed).  Every pass starts from a virtual clock at zero, so
all passes of one run must report bit-identical virtual results.

**Dataset fixed, schedule seeded.**  The synthetic corpus is always
generated at ``CORPUS_SEED`` — the seed EXPERIMENTS.md is calibrated
against.  ``--seed`` draws everything a load generator would draw:
rollout staggers, transfer sizes and think times, conversion order, the
releases rolled out and their deploy order, fabric RNG streams (hedging,
peer choice, gossip jitter, churn), fault-plan and retry-jitter streams,
reader offsets.  Retry policies, timeouts and backoffs are always the
program's defaults; a workload chooses only topology and inputs.  The
corpus is not re-drawn per seed because one image's size swings by a
factor of 2.7 across corpus seeds (nginx at scale 0.2: 55–147 MB over
seeds 1–10), which would bury a 10% regression under input variance;
the precedent is ``repro.cli slo --slo-seed`` ("corpus seed stays
--seed").

All loops are closed: simulated clients wait for their own reply and
there is no host-side arrival schedule.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence, Tuple

from . import adapters

#: The calibrated corpus seed (EXPERIMENTS.md); never varied by ``--seed``.
CORPUS_SEED = 7

MiB = 1024 * 1024


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"ledger:{workload}:{seed}")


class Wave:
    name = "wave"
    op = "one client's Gear deploy"
    why = (
        "Gear deploy wave of nginx on a shared 100 Mbps uplink: the only workload "
        "where thread processes, link fair-share and the whole Gear read path "
        "contend together (ROADMAP item 2 must show here)"
    )
    sizes = {
        "full": {"clients": 512, "scale": 0.2, "mbps": 100.0, "stagger_s": 1.0},
        "smoke": {"clients": 12, "scale": 0.1, "mbps": 100.0, "stagger_s": 1.0},
    }

    def prepare(self, seed: int, size: Dict[str, Any]) -> None:
        corpus = adapters.build_corpus(CORPUS_SEED, size["scale"], ("nginx",), 1)
        self.image = adapters.series_images(corpus, "nginx")[0]
        rng = _rng(self.name, seed)
        self.stagger = [rng.random() * size["stagger_s"] for _ in range(size["clients"])]
        self.size = size
        self.control = adapters.control_digest(self.image)

    def build(self) -> Any:
        return adapters.wave_build(self.image, self.size["clients"], self.size["mbps"])

    def run(self, world: Any, tracer: Any) -> Any:
        return adapters.wave_run(world, self.image, self.stagger, tracer)

    def check(self, world: Any, raw: Any) -> Dict[str, Any]:
        return adapters.wave_check(world, raw, self.control)


class Microflows:
    name = "microflows"
    op = "one transfer"
    why = (
        "generator clients think+transfer on one 200 Mbps link: pure clock + "
        "link, no threads, no Gear stack; a scheduler regression hidden by "
        "deleting thread handoff shows here"
    )
    sizes = {
        "full": {"clients": 4096, "transfers": 8, "mbps": 200.0},
        "smoke": {"clients": 64, "transfers": 4, "mbps": 200.0},
    }

    def prepare(self, seed: int, size: Dict[str, Any]) -> None:
        rng = _rng(self.name, seed)
        self.plans = [
            (
                [rng.randrange(65536, 2_097_152) for _ in range(size["transfers"])],
                [rng.random() * 0.2 for _ in range(size["transfers"])],
            )
            for _ in range(size["clients"])
        ]
        self.size = size

    def build(self) -> None:
        return None

    def run(self, world: Any, tracer: Any) -> Any:
        return adapters.microflows_run(self.plans, self.size["mbps"], tracer)

    def check(self, world: Any, raw: Any) -> Dict[str, Any]:
        return raw


def _corpus_args(size: Dict[str, Any]) -> Tuple[Any, ...]:
    return (CORPUS_SEED, size["scale"], size["series"], size["versions"])


class Convert:
    name = "convert"
    op = "one image converted"
    why = (
        "build the corpus, push and convert every image: the registry-side "
        "write path (corpus, vfs, blob, hashing, registries, converter) with "
        "no scheduler; read-path caches must not cost here"
    )
    sizes = {
        "full": {"scale": 0.2, "series": None, "versions": 2, "gap_s": 0.25},
        "smoke": {"scale": 0.1, "series": ("nginx", "redis"), "versions": 2,
                  "gap_s": 0.25},
    }

    def prepare(self, seed: int, size: Dict[str, Any]) -> None:
        self.corpus_args = _corpus_args(size)
        self.schedule_seed = f"ledger:{self.name}:{seed}"
        self.gap_s = size["gap_s"]

    def build(self) -> None:
        return None

    def run(self, world: Any, tracer: Any) -> Any:
        return adapters.convert_run(
            self.corpus_args, self.schedule_seed, self.gap_s, tracer
        )

    def check(self, world: Any, raw: Any) -> Dict[str, Any]:
        return adapters.convert_check(raw)


class SeqDeploy:
    name = "seqdeploy"
    op = "one deploy"
    why = (
        "one cold client at a time deploys every image with Docker and Gear at "
        "904 and 20 Mbps: the Fig. 8/9 read path (driver, viewer, pool, "
        "overlay, daemon, tar, disk) without scheduler or fair-share"
    )
    sizes = {
        "full": {"scale": 0.2, "series": None, "versions": 4, "releases": 1,
                 "mbps": (904.0, 20.0), "think_s": 0.5, "phase_samples": 8},
        "smoke": {"scale": 0.1, "series": ("nginx", "redis"), "versions": 2,
                  "releases": 1, "mbps": (904.0, 20.0), "think_s": 0.5,
                  "phase_samples": 2},
    }

    def prepare(self, seed: int, size: Dict[str, Any]) -> None:
        corpus = adapters.build_corpus(*_corpus_args(size))
        rng = _rng(self.name, seed)
        # The seed picks the releases of each series the operators roll
        # out; each is deployed with both systems at both link speeds.
        self.images = [
            image
            for versions in adapters.images_by_series(corpus)
            for image in rng.sample(versions, min(size["releases"], len(versions)))
        ]
        deploys = [
            (image, system, mbps)
            for image in self.images
            for system in ("docker", "gear")
            for mbps in size["mbps"]
        ]
        rng.shuffle(deploys)
        self.schedule = [
            (image, system, mbps, rng.random() * size["think_s"])
            for image, system, mbps in deploys
        ]
        self.size = size

    def build(self) -> Any:
        return adapters.seqdeploy_build(self.images)

    def run(self, world: Any, tracer: Any) -> Any:
        return adapters.seqdeploy_run(world, self.schedule, tracer)

    def check(self, world: Any, raw: Any) -> Dict[str, Any]:
        return adapters.seqdeploy_check(world, self.schedule, raw)

    def virtual_phases(self) -> Dict[str, float]:
        """Extra traced-run metrics: the program's own virtual-time
        critical path on evenly sampled images (``virt.phase.*``)."""
        step = max(1, len(self.images) // self.size["phase_samples"])
        return adapters.seqdeploy_phases(
            self.build(), self.images[::step], self.size["mbps"][0]
        )


class Fabrics:
    name = "fabrics"
    op = "one deploy or invocation"
    why = (
        "HA wave with a replica down, edge rolling upgrade with churn and a "
        "byzantine peer, FaaS Zipf stream with spike and tier outage: the three "
        "failover ladders ROADMAP item 3 collapses"
    )
    sizes = {
        "full": {
            "scale": 0.2, "mbps": 200.0, "ha_clients": 24, "edge_clients": 12,
            "edge_versions": 4, "churn_rate": 2.0, "churn_horizon_s": 10.0,
            "faas": {"duration_s": 40.0, "rate_per_s": 10.0, "functions": 40,
                     "skew": 1.0},
            "spike": (16.0, 4.0, 10.0), "outage": (17.0, 2.0),
            "faas_nodes": 6, "keep_warm_s": 15.0,
            "faas_series": ("nginx", "redis", "python", "httpd"),
        },
        "smoke": {
            "scale": 0.1, "mbps": 200.0, "ha_clients": 6, "edge_clients": 8,
            "edge_versions": 2, "churn_rate": 2.0, "churn_horizon_s": 10.0,
            "faas": {"duration_s": 12.0, "rate_per_s": 4.0, "functions": 8,
                     "skew": 1.0},
            "spike": (5.0, 2.0, 6.0), "outage": (5.5, 1.0),
            "faas_nodes": 3, "keep_warm_s": 4.0,
            "faas_series": ("nginx", "redis"),
        },
    }

    def prepare(self, seed: int, size: Dict[str, Any]) -> None:
        versions = size["edge_versions"]
        nginx = adapters.build_corpus(CORPUS_SEED, size["scale"], ("nginx",), versions)
        self.versions = adapters.series_images(nginx, "nginx")
        self.faas_corpus = adapters.build_corpus(
            CORPUS_SEED, size["scale"], size["faas_series"], 2
        )
        self.seed = seed
        self.size = size
        rng = _rng(self.name, seed)
        self.ha_stagger = [rng.random() for _ in range(size["ha_clients"])]
        self.edge_stagger = [rng.random() for _ in range(size["edge_clients"])]
        self.ha_control = adapters.control_digest(self.versions[0])
        self.edge_controls = [adapters.control_digest(g) for g in self.versions]
        self.faas_control = adapters.faas_controls(
            adapters.all_images(self.faas_corpus)
        )

    def build(self) -> Any:
        size, seed = self.size, self.seed
        return {
            "ha": adapters.ha_build(
                self.versions[0], size["ha_clients"], size["mbps"],
                f"ledger-ha-{seed}",
            ),
            "edge": adapters.edge_build(
                self.versions, size["edge_clients"], size["mbps"],
                size["churn_rate"], size["churn_horizon_s"],
                f"ledger-edge-{seed}",
            ),
            "faas": adapters.faas_build(
                self.faas_corpus, size["faas"], size["spike"], size["outage"],
                size["faas_nodes"], size["keep_warm_s"], size["mbps"],
                f"ledger-faas-trace-{CORPUS_SEED}", f"ledger-faas-{seed}",
            ),
        }

    def run(self, world: Any, tracer: Any) -> Any:
        return {
            "ha": adapters.wave_run(
                world["ha"], self.versions[0], self.ha_stagger, tracer
            ),
            "edge": adapters.edge_run(
                world["edge"], self.versions, self.edge_stagger, tracer
            ),
            "faas": adapters.faas_run(world["faas"], tracer),
        }

    def check(self, world: Any, raw: Any) -> Dict[str, Any]:
        return merge_results(
            adapters.ha_check(world["ha"], raw["ha"], self.ha_control),
            adapters.edge_check(world["edge"], raw["edge"], self.edge_controls),
            adapters.faas_check(world["faas"], raw["faas"], self.faas_control),
        )


class ChunkReads:
    name = "chunkreads"
    op = "one reader"
    why = (
        "concurrent readers over one big file with overlapping read_range "
        "calls (clean, chunk faults, byzantine): ranges and partials, so a "
        "whole-file fast path that costs range reads shows"
    )
    scenarios = ("clean", "chunk-faults", "byzantine")
    #: Per-transfer fault probabilities, sized to the file: a 128 MiB
    #: pass makes ~1100 chunk calls per scenario under the program's
    #: default 4-attempt retry ladders, and a call whose attempts fail
    #: with probability p gives up with p^4.  At these rates that is
    #: 4e-7 per call (no reader lost at any of 120 seeds); at the CLI
    #: sweep's rates (4% drops, 10-15% corruption, tuned for its 8 MiB
    #: file) 11 of 20 seeds lose a reader.  Still 14 drops and 63
    #: corruptions per pass at seed 7.
    fault_rates = {"drop_rate": 0.005, "corrupt_rate": 0.03, "byzantine_rate": 0.025}
    sizes = {
        "full": {"readers": 32, "big_mib": 128, "mbps": 100.0, **fault_rates},
        "smoke": {"readers": 4, "big_mib": 4, "mbps": 100.0, **fault_rates},
    }

    def prepare(self, seed: int, size: Dict[str, Any]) -> None:
        self.size = size
        self.seed = f"ledger-chunks-{seed}"
        big = size["big_mib"] * MiB
        self.big_bytes = big
        rng = _rng(self.name, seed)
        span = max(1, big // size["readers"])
        # Each reader covers its slice plus (most of) the neighbour's, from
        # a seeded offset inside its slice: every boundary chunk is
        # contended, and the readers together still cover the file.
        self.ranges: List[Tuple[int, int]] = []
        for reader in range(size["readers"]):
            start = min(reader * span, max(0, big - span))
            jitter = rng.randrange(0, max(1, span // 16)) if reader else 0
            start = max(0, start - jitter)
            self.ranges.append((start, min(big - start, 2 * span + jitter)))
        self.plans = adapters.chunk_plans(
            self.seed, size["drop_rate"], size["corrupt_rate"], size["byzantine_rate"]
        )
        self.control = adapters.chunk_control(self._world(None))

    def _world(self, plan: Any) -> Any:
        return adapters.chunk_build(
            self.big_bytes, f"model-{CORPUS_SEED}", self.size["mbps"], self.seed, plan,
        )

    def build(self) -> Any:
        return {name: self._world(self.plans[name]) for name in self.scenarios}

    def run(self, world: Any, tracer: Any) -> Any:
        return {
            name: adapters.chunk_run(world[name], self.ranges, tracer)
            for name in self.scenarios
        }

    def check(self, world: Any, raw: Any) -> Dict[str, Any]:
        return merge_results(*(
            adapters.chunk_check(
                world[name], raw[name], len(self.ranges), self.control, name
            )
            for name in self.scenarios
        ))


def merge_results(*parts: Dict[str, Any]) -> Dict[str, Any]:
    """Back-to-back scenario results as one pass result: everything adds
    up (virtual makespans too — the scenarios run one after the other)."""
    counters: Dict[str, float] = {}
    for part in parts:
        for key, value in part["counters"].items():
            counters[key] = counters.get(key, 0) + value
    merged: Dict[str, Any] = {
        key: sum((part[key] for part in parts), type(parts[0][key])())
        for key in ("ops", "failures", "latencies_s", "makespan_s",
                    "net_bytes", "store_bytes", "outputs")
    }
    merged["counters"] = counters
    return merged


WORKLOADS: Sequence[Any] = (Wave, Microflows, Convert, SeqDeploy, Fabrics, ChunkReads)
BY_NAME = {workload.name: workload for workload in WORKLOADS}
