"""Fig. 9: deployment time (pull + run) under different bandwidths.

Paper, average over all images (speedup of Gear over Docker):
    904 Mbps — Gear+cache 1.64x, Gear no-cache 1.4x
    100 Mbps — 2.61x / 1.92x
     20 Mbps — 3.45x / 2.23x
      5 Mbps — 5.01x / 2.95x
Gear's pull phase is much shorter (only the index travels); its run
phase is longer (files fault in on demand).
"""

from repro.bench.deploy import deploy_with_docker, deploy_with_gear
from repro.bench.environment import make_testbed, publish_images
from repro.bench.reporting import format_table

from conftest import QUICK, run_once

BANDWIDTHS = (904, 100, 20, 5)
PAPER_SPEEDUPS = {904: (1.64, 1.4), 100: (2.61, 1.92), 20: (3.45, 2.23),
                  5: (5.01, 2.95)}


def test_fig9_deployment_time_vs_bandwidth(benchmark, corpus):
    # One representative version per series keeps 4 bandwidths tractable.
    sample = [images[0] for images in corpus.by_series.values()]
    if QUICK:
        sample = sample[::3]

    def sweep():
        results = {}
        for bandwidth in BANDWIDTHS:
            testbed = make_testbed(bandwidth_mbps=bandwidth)
            publish_images(testbed, sample, convert=True)
            docker_pull = docker_run = 0.0
            nc_pull = nc_run = 0.0
            for generated in sample:
                docker = deploy_with_docker(testbed.fresh_client(), generated)
                docker_pull += docker.pull_s
                docker_run += docker.run_s
                gear_nc = deploy_with_gear(
                    testbed.fresh_client(), generated, clear_cache=True
                )
                nc_pull += gear_nc.pull_s
                nc_run += gear_nc.run_s
            # Cached scenario (§V-D): one long-lived client "maintains
            # and uses its locally cached files" — each deployment
            # benefits from the files earlier deployments pulled (shared
            # bases, borrowed runtimes), not from a copy of itself.
            cache_pull = cache_run = 0.0
            cached_client = testbed.fresh_client()
            for generated in sample:
                gear_c = deploy_with_gear(cached_client, generated)
                cache_pull += gear_c.pull_s
                cache_run += gear_c.run_s
            count = len(sample)
            results[bandwidth] = {
                "docker": (docker_pull / count, docker_run / count),
                "gear_nc": (nc_pull / count, nc_run / count),
                "gear_cache": (cache_pull / count, cache_run / count),
            }
        return results

    results = run_once(benchmark, sweep)

    print("\nFig. 9 — average deployment time (pull / run), seconds")
    rows = []
    for bandwidth in BANDWIDTHS:
        entry = results[bandwidth]
        docker_total = sum(entry["docker"])
        nc_total = sum(entry["gear_nc"])
        cache_total = sum(entry["gear_cache"])
        rows.append(
            (
                f"{bandwidth} Mbps",
                f"{entry['docker'][0]:.2f}/{entry['docker'][1]:.2f}",
                f"{entry['gear_nc'][0]:.2f}/{entry['gear_nc'][1]:.2f}",
                f"{entry['gear_cache'][0]:.2f}/{entry['gear_cache'][1]:.2f}",
                f"{docker_total / cache_total:.2f}x / "
                f"{docker_total / nc_total:.2f}x",
                f"{PAPER_SPEEDUPS[bandwidth][0]:.2f}x / "
                f"{PAPER_SPEEDUPS[bandwidth][1]:.2f}x",
            )
        )
    print(
        format_table(
            ["Bandwidth", "Docker p/r", "Gear-nc p/r", "Gear-cache p/r",
             "Speedup (cache/nc)", "Paper"],
            rows,
        )
    )

    # Shape assertions.
    for bandwidth in BANDWIDTHS:
        entry = results[bandwidth]
        # Gear pulls are far shorter; Gear runs are longer (§V-E1).
        assert entry["gear_nc"][0] < entry["docker"][0]
        assert entry["gear_nc"][1] > entry["docker"][1]
        assert sum(entry["gear_cache"]) <= sum(entry["gear_nc"]) * 1.02
        # Gear wins end to end wherever pulling matters; at 904 Mbps the
        # advantage can vanish on small corpora (the paper itself notes
        # "no obvious advantage … in high bandwidth").
        if bandwidth <= 100 or not QUICK:
            assert sum(entry["gear_nc"]) < sum(entry["docker"])
    # Speedups grow as bandwidth falls, reaching several-x at 5 Mbps.
    speedup = {
        bw: sum(results[bw]["docker"]) / sum(results[bw]["gear_cache"])
        for bw in BANDWIDTHS
    }
    assert speedup[5] > speedup[20] > speedup[100] > speedup[904]
    # The quick sample (every third series) reads 2.33x at 5 Mbps: the
    # shape above holds at either scale, several-x needs the full corpus.
    assert speedup[5] > (2.0 if QUICK else 3.0)
    if not QUICK:
        assert speedup[904] > 1.0
