"""The recorded full-size ``paper`` run: calibration thresholds, freshness,
and the EXPERIMENTS.md tables generated from it.

``benchmarks/artifacts/PAPER_full.json`` is the ``paper`` sweep on the
whole Table I corpus at seed 7 (``benchmarks/artifacts.py --full``).  The
sweep's own shape invariants are ordinal and hold at any size; the
thresholds here are the ones that need full-size images — how close each
row sits to the paper, and the margins the orderings hold by.  Nothing in
this file runs an experiment.
"""

import json
import os

import pytest

from repro.bench import paper

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
ARTIFACTS = os.path.join(ROOT, "benchmarks", "artifacts")


def _load(name: str) -> dict:
    with open(os.path.join(ARTIFACTS, name)) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def full() -> dict:
    return _load("PAPER_full.json")


@pytest.fixture(scope="module")
def measured(full) -> dict:
    return {
        name: cell["measured"]
        for name, cell in full["report"]["cells"].items()
    }


class TestRecording:
    def test_is_the_whole_corpus_with_every_cell_green(self, full):
        report = full["report"]
        assert (report["seed"], report["scale"]) == (7, 1.0)
        assert (report["series"], report["images"]) == (50, 971)
        assert list(report["cells"]) == sorted(paper.STUDIES)
        for name, cell in report["cells"].items():
            claims = paper.STUDIES[name].shape(cell["measured"])
            assert cell["shape"] == dict.fromkeys(claims, True), name

    def test_is_no_older_than_the_smoke_artifact(self, full):
        """The file embeds the smoke-size report of the commit that made
        it: when a PR moves a paper number, ``BENCH_ext_paper.json``
        changes and this fails until ``artifacts.py --full`` is re-run."""
        assert full["smoke"] == _load("BENCH_ext_paper.json")["report"]

    def test_experiments_md_tables_are_generated_from_it(self, full):
        with open(os.path.join(ROOT, "EXPERIMENTS.md")) as handle:
            document = handle.read()
        assert paper.splice(document, full["report"]["cells"]) == document


class TestCalibration:
    """Today's full-size thresholds, one test per study."""

    def test_table2(self, measured):
        m = measured["table2"]
        _, layer, file, chunk = m["reduction"]
        # Paper: 74% / 87% / 88%.
        assert abs(layer - 0.74) < 0.05
        assert abs(file - 0.87) < 0.04
        assert abs(chunk - 0.88) < 0.04
        assert file > layer + 0.08
        assert chunk - file < 0.05
        assert m["chunk_object_blowup"] > 3.0

    def test_fig2(self, measured):
        redundancy = measured["fig2"]["redundancy"]
        assert redundancy["Database"] > 0.4
        assert redundancy["Application Platform"] > 0.4
        assert redundancy["Linux Distro"] < 0.35
        assert 0.2 < redundancy["Average"] < 0.7

    def test_fig6(self, measured):
        m = measured["fig6"]
        assert m["largest_quartile_s"] > 2 * m["smallest_quartile_s"]
        for name, hdd in m["hdd_s"].items():  # paper: node −65.7%
            assert m["ssd_s"][name] < 0.55 * hdd, name

    def test_fig7(self, measured):
        m = measured["fig7"]
        saving = m["saving"]
        target = paper.STUDIES["fig7"].paper["saving"]
        assert saving["Linux Distro"] < 0.35
        for category in ("Database", "Web Component", "Application Platform"):
            assert saving[category] > 0.45
        for category, paper_saving in target.items():
            if category != "Whole registry":  # within 8 points per category
                assert abs(saving[category] - paper_saving) < 0.08, category
        assert 0.45 < saving["Whole registry"] < 0.70
        assert m["index_share"] < 0.05

    def test_fig8(self, measured):
        m = measured["fig8"]
        no_cache, cached = m["no_cache_share"]["All"], m["cached_share"]["All"]
        assert 0.18 < no_cache < 0.42  # paper: 29.1%
        assert 0.08 < cached < 0.28  # paper: 16.2%
        assert cached < no_cache * 0.75

    def test_fig9(self, measured):
        m = measured["fig9"]
        for i, mbps in enumerate(m["mbps"]):
            docker = m["docker_pull_s"][i] + m["docker_run_s"][i]
            no_cache = m["gear_nc_pull_s"][i] + m["gear_nc_run_s"][i]
            # Gear wins end to end at every bandwidth, caches or not.
            assert no_cache < docker, mbps
        assert m["speedup_cache"][m["mbps"].index(904)] > 1.0
        assert m["speedup_cache"][m["mbps"].index(5)] > 3.0

    def test_fig10(self, measured):
        m = measured["fig10"]
        fast, slowdown = m["avg_1000_s"], m["slowdown"]
        gear = m["versions_1000_s"]["gear"]
        # Docker slowest at high bandwidth; Gear improves with file sharing.
        assert fast["docker"] > fast["gear"]
        assert fast["docker"] > fast["slacker"]
        assert min(gear[3:]) < gear[0] * 0.8
        assert slowdown["gear"] < 0.85 * min(
            slowdown["docker"], slowdown["slacker"]
        )
        assert slowdown["docker"] > 1.8
        assert slowdown["slacker"] > 1.5

    def test_ablation_prefetch(self, measured):
        m = measured["ablation-prefetch"]
        demand, everything = m["task_s"][0], m["task_s"][1]
        # Prefetch-all removes (nearly) every fetch from the task path and
        # moves the same bytes: the prefetch phase absorbs what the task paid.
        assert everything < demand * 0.5
        assert m["prefetch_s"][1] + everything < demand * 1.15

    def test_related_work(self, measured):
        m = measured["related-work"]
        docker_mb, duphunter_mb, _, gear_mb = m["registry_mb"]
        docker_wire, _, _, gear_wire = m["wire_mb"]
        assert duphunter_mb < docker_mb * 0.8
        assert gear_mb < docker_mb * 0.8
        assert gear_wire < docker_wire * 0.5
