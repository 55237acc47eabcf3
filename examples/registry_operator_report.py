#!/usr/bin/env python
"""Scenario: a registry operator sizing storage before adopting Gear.

An operator hosting a private registry wants to know, before converting
anything: how much space does each dedup granularity save (Table II),
which image families benefit most (Fig. 7a), and what the conversion
backlog costs (Fig. 6)?  This example runs that capacity-planning study
on a representative slice of the catalog.

Run:  python examples/registry_operator_report.py
"""

from repro.analysis import compute_dedup_table
from repro.bench.environment import make_testbed, publish_images
from repro.bench.paper import registry_bytes
from repro.bench.reporting import format_table, gb, pct
from repro.workloads.corpus import CorpusBuilder, CorpusConfig

FLEET = ("debian", "python", "mysql", "nginx", "tomcat", "wordpress")


def main() -> None:
    print("generating the operator's image fleet…")
    corpus = CorpusBuilder(
        CorpusConfig(
            seed=7,
            file_scale=0.5,
            size_scale=0.5,
            series_names=FLEET,
            versions_cap=8,
        )
    ).build()

    # -- 1. dedup-granularity study (Table II on this fleet) --------------
    table = compute_dedup_table(corpus.docker_images())
    print("\n1. what would each dedup granularity store?")
    print(
        format_table(
            ["Granularity", "Stored (GB)", "Objects"],
            [(name, gb(size), f"{objects:,}") for name, size, objects in table.rows()],
        )
    )

    # -- 2. per-series Gear saving (Fig. 7a), from one conversion pass ----
    testbed = make_testbed()
    reports = publish_images(testbed, corpus.images)
    rows = []
    for name, images in sorted(corpus.by_series.items()):
        docker, files, indexes = registry_bytes(testbed, images)
        rows.append((name, gb(docker), gb(files + indexes),
                     pct(1.0 - (files + indexes) / docker)))
    print("\n2. per-series saving after converting to Gear")
    print(format_table(["Series", "Docker (GB)", "Gear (GB)", "Saving"], rows))
    docker, files, indexes = registry_bytes(testbed, corpus.images)
    print(f"whole fleet together: {pct(1.0 - (files + indexes) / docker)} saved "
          f"(indexes are {pct(indexes / (files + indexes))} of the Gear footprint)")

    # -- 3. conversion backlog (Fig. 6) ------------------------------------
    total_time = sum(r.duration_s for r in reports)
    print(f"\n3. converting all {len(reports)} images would take "
          f"{total_time:.0f} virtual seconds on the registry's HDD "
          f"({total_time / len(reports):.1f} s/image), done once, offline.")
    collisions = sum(r.collisions for r in reports)
    print(f"   fingerprint collisions during conversion: {collisions}")


if __name__ == "__main__":
    main()
