"""The invariant catalogue (``repro.invariants``), broken on purpose.

Each check is fed a world with one planted fault and must name it as
``"<where>:<identity>"``: junk committed to a node pool, in an edge site
cache or in the FaaS tier; a flight claimed and never released; a
partial file left behind.  A clean world breaks nothing, a store two
lists name (an edge peer's pool is its node's pool) is audited once, and
a sweep cell whose world breaks a check exits 1 and names it on stderr
with its report unchanged.
"""

import argparse
import json

import pytest

from repro.bench.environment import attach_edge, make_faas_testbed, make_testbed
from repro.blob import Blob
from repro.cli import run_sweep
from repro.common.clock import SimScheduler
from repro.gear.gearfile import GearFile
from repro.gear.pool import PartialFile, SharedFilePool
from repro.invariants import World, audit, flights_left, partials_leaked, poisoned_commits
from repro.net.faults import junk_payload
from repro.net.topology import EdgeCluster

GOOD = GearFile.from_blob(Blob.from_bytes(b"the file a name promises"))
NAME = GOOD.identity
JUNK = junk_payload(NAME, "bit rot at rest")


def commit_junk(pool: SharedFilePool) -> None:
    """Commit bytes that do not hash to their name (what a torn stage is)."""
    pool.prepare(JUNK, torn=True)
    pool.commit(NAME)


def test_a_clean_world_breaks_nothing():
    pool = SharedFilePool()
    pool.insert(GOOD)
    bed = make_faas_testbed()
    bed.faas.tier._insert(NAME, GOOD)
    assert audit(World({"a": pool}, bed.tiers)) == {}


def test_a_junk_inode_committed_to_a_node_pool_is_named():
    good, bad = SharedFilePool(), SharedFilePool()
    good.insert(GOOD)
    commit_junk(bad)
    world = World({"good": good, "bad": bad})
    assert poisoned_commits(world) == [f"node:bad:{NAME}"]
    assert audit(world) == {"poisoned_commits": [f"node:bad:{NAME}"]}


def test_a_bad_site_cache_entry_is_named():
    bed = attach_edge(make_testbed(), sites=2)
    bed.edge.sites[1].cache[NAME] = JUNK
    where = f"site:{bed.edge.sites[1].name}:{NAME}"
    assert poisoned_commits(World({}, bed.tiers)) == [where]
    assert bed.edge.audit_integrity() == [where]


def test_a_bad_faas_tier_entry_is_named():
    bed = make_faas_testbed()
    bed.faas.tier._insert(NAME, JUNK)
    node = bed.faas.client("fn-0")
    commit_junk(node.gear_driver.pool)
    found = [f"tier:{bed.faas.tier.name}:{NAME}", f"node:fn-0:{NAME}"]
    assert poisoned_commits(World({}, bed.tiers)) == found
    assert bed.faas.audit_integrity() == found


def test_a_poisoned_edge_peer_pool_is_reported_once():
    """The node's pool is the pool its peer serves from: listed by the
    world's nodes and by the edge tier, it is one store and one
    violation, under the node's name; the tier alone names the peer."""
    cluster = EdgeCluster(2)
    commit_junk(cluster.nodes[1].testbed.gear_driver.pool)
    assert poisoned_commits(World.of(cluster)) == [f"node:node-001:{NAME}"]
    assert cluster.fabric.audit_integrity() == [f"peer:node-001:{NAME}"]


def test_a_flight_claimed_and_never_released_is_named():
    bed = make_faas_testbed()
    pool = SharedFilePool()
    partial = pool.partials[NAME] = PartialFile(GOOD.blob)
    with SimScheduler(bed.clock):
        pool.inflight.claim(NAME, bed.clock)
        partial.inflight.claim(3, bed.clock)
        bed.faas.tier.inflight.claim(NAME, bed.clock)
    world = World({"a": pool}, bed.tiers)
    assert flights_left(world) == [
        f"node:a:{NAME}", f"node:a:{NAME}:3", f"tier:{bed.faas.tier.name}:{NAME}"
    ]
    assert set(audit(world)) == {"flights_left", "partials_leaked"}


def test_a_partial_file_left_behind_is_named():
    pool = SharedFilePool()
    pool.partials[NAME] = PartialFile(GOOD.blob)
    world = World({"a": pool})
    assert partials_leaked(world) == [f"node:a:{NAME}"]
    assert audit(world) == {"partials_leaked": [f"node:a:{NAME}"]}


@pytest.mark.parametrize("planted", [False, True])
def test_a_sweep_names_a_broken_check_and_keeps_its_report(planted, capsys):
    pool = SharedFilePool()
    if planted:
        commit_junk(pool)
    args = argparse.Namespace(command="probe", json=True)
    code = run_sweep(args, {}, "cells", ["only"],
                     lambda name: ({"value": 1}, {}, World({"a": pool})),
                     "", [], verdict=True)
    out, err = capsys.readouterr()
    assert json.loads(out) == {"cells": {"only": {"value": 1, "ok": not planted}}}
    assert code == int(planted)
    assert err == (f"probe only: poisoned_commits=['node:a:{NAME}']\n" if planted else "")
