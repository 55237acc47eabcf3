"""What a deployed client keeps alive: log and archive columns instead of
an object per operation or member, strings minted once, immutable inputs
shared (DESIGN.md §17).

Everything here is asserted by count, object identity or retained bytes
— never by a clock, so the suite reads the same on a loaded box.
"""

import gc
import tracemalloc

import pytest

from repro.blob import Blob
from repro.blob.compressibility import blob_compressed_size
from repro.bench.deploy import deploy_with_gear, viewer_fs_digest
from repro.bench.environment import make_testbed, publish_images
from repro.gear.index import GearIndex
from repro.gear.journal import LINK_BEGIN, LINK_COMMIT, JournalRecord
from repro.net.link import TransferRecord
from repro.net.topology import Cluster
from repro.vfs.tar import LayerArchive
from repro.vfs.tree import FileSystemTree
from repro.workloads.corpus import CorpusBuilder, CorpusConfig
from repro.workloads.tasks import task_for_category

#: Retained Python heap one client of the nginx wave may cost (the
#: 37-file trace at scale 0.2).  Measured 22.5 KB, and 23.1 KB once
#: every mount has been digested; it was 23.0 KB (23.8 KB) while every
#: pull unpacked the index layer for the graph driver, 31 KB (32 KB
#: digested) when a deployment linked into its own copy-on-write clone
#: of the index tree, 41 KB (48 KB) when every inode had a ``Metadata``
#: of its own, every pool a chunk table and every mount a set of touched
#: inodes, 56 KB when the two logs kept a tuple per operation, and 100 KB
#: when every record was dict-backed and every label, token and payload
#: a copy.
PER_CLIENT_BUDGET_BYTES = 27_000
#: Objects the collector tracks that one such client may add.  Measured
#: 67; it was 73, 123 (the copied index directories and their child dicts),
#: 188 (62 of them ``Metadata`` and their attribute dicts), and 426 when
#: each record was a tuple.
PER_CLIENT_TRACKED_OBJECTS = 90


@pytest.fixture(scope="module")
def nginx():
    """The ledger's ``wave`` image: nginx, one version, scale 0.2."""
    corpus = CorpusBuilder(
        CorpusConfig(
            seed=7, file_scale=0.2, size_scale=0.2,
            series_names=("nginx",), versions_cap=1,
        )
    ).build()
    return corpus.by_series["nginx"][0]


@pytest.fixture
def world(nginx):
    """A registry with nginx published, warmed by one throwaway client
    so the per-archive templates exist before anything is counted."""
    root = make_testbed(bandwidth_mbps=100.0)
    publish_images(root, [nginx], convert=True)
    deploy_with_gear(root.fresh_client(), nginx)
    return root


def _deployed_client(world, image):
    bed = world.fresh_client()
    deploy_with_gear(bed, image)
    return bed


class TestOneObjectNotOnePerOperation:
    def test_link_records_share_the_reference_and_the_entry_paths(
        self, world, nginx
    ):
        bed = _deployed_client(world, nginx)
        index = bed.gear_driver.containers()[-1].index
        links = [
            record for record in bed.gear_driver.journal.records
            if record.op in (LINK_BEGIN, LINK_COMMIT)
        ]
        assert len(links) == 2 * nginx.trace.file_count
        for record in links:
            assert record.reference is index.reference
            assert record.path is index.entries[record.path].path

    def test_two_clients_keep_one_task_payload(self, world, nginx):
        payloads = []
        for _ in range(2):
            mount = _deployed_client(world, nginx).gear_driver.containers()[-1].mount
            (chunk,) = mount.read_blob("/var/run/task-0.out").chunks
            payloads.append(chunk.literal)
        assert payloads[0] and payloads[0] is payloads[1]

    def test_indexes_of_one_archive_share_a_read_only_entry_table(
        self, world, nginx
    ):
        bed = _deployed_client(world, nginx)
        reference = bed.gear_driver.containers()[-1].index.reference
        image = bed.daemon.get_image(reference)
        first, second = GearIndex.from_image(image), GearIndex.from_image(image)
        assert first.entries is second.entries
        # The stub tree too: each index links through a table of its own.
        assert first.tree is second.tree and first.tree.read_only
        assert first.links is not second.links
        path, entry = next(iter(first.entries.items()))
        with pytest.raises(TypeError):
            first.entries[path] = entry
        with pytest.raises(TypeError):
            del first.entries[path]

    def test_a_deployment_mints_no_metadata(self, world, nginx):
        beds = [_deployed_client(world, nginx) for _ in range(2)]
        containers = [bed.gear_driver.containers()[-1] for bed in beds]
        image = beds[0].daemon.get_image(containers[0].index.reference)
        template, _ = image.layers[0].archive.index_template
        for container in containers:
            # A deployment copies no index directory: it links files
            # through the index's table, and the tree it reads through
            # is the template itself.
            assert container.index.tree is template
            assert len(container.index.links) == nginx.trace.file_count
            # A directory its writes made where the template has one
            # holds the value the template's directory holds.
            for path, node in container.mount.upper.walk("/"):
                if node.is_dir and template.exists(path):
                    assert node.meta is template.stat(path).meta, path
        # Two clients' pool inodes for one file hold one value between
        # them, and a whole pool a handful: one per mode in the image.
        first, second = (bed.gear_driver.pool for bed in beds)
        identities = list(first.identities())
        assert len(identities) == nginx.trace.file_count
        for identity in identities:
            assert first.peek(identity).meta is second.peek(identity).meta
        modes = {entry.mode for entry in containers[0].index.entries.values()}
        assert len({id(first.peek(i).meta) for i in identities}) <= len(modes)

    def test_a_second_pool_mints_no_chunk_token(self, world, nginx):
        first = _deployed_client(world, nginx).gear_driver.pool
        second = _deployed_client(world, nginx).gear_driver.pool
        # The table is built by the first query, not by the deployment.
        assert first._chunk_tokens is None and second._chunk_tokens is None
        assert not first.has_chunk("absent") and not second.has_chunk("absent")
        minted = {id(token) for token in first._chunk_tokens}
        assert minted and len(minted) == len(second._chunk_tokens)
        assert all(id(token) in minted for token in second._chunk_tokens)

    def test_two_clients_keep_one_label_per_rpc_leg(self, world, nginx):
        # Clients of one registry share its wire, and so its transfer log.
        log = world.link.log
        already = len(log.records)
        for _ in range(2):
            _deployed_client(world, nginx)
        records = log.records[already:]
        labels = {record.label for record in records}
        assert len(records) == 2 * len(labels)  # every leg once per client
        assert len({id(record.label) for record in records}) == len(labels)

    def test_records_are_flat(self):
        for record in (
            JournalRecord(0, LINK_BEGIN, "id", 0.0),
            TransferRecord(0.0, 1.0, 1, "label"),
        ):
            assert isinstance(record, tuple)
            assert not hasattr(record, "__dict__")


def _warmed_cluster(image, clients, *, digest=False):
    """A cluster of ``clients`` undeployed nodes and the function that
    deploys one, with everything that is not a client already paid for
    (with ``digest``, the index nodes a digest of a mount mints once)."""
    # Earlier worlds' garbage must not be counted.  (An index template
    # lives on its own archive: an earlier world's equal one can neither
    # lend this world a template nor take it away mid-measurement.)
    gc.collect()
    cluster = Cluster(2 * clients, bandwidth_mbps=100.0)
    publish_images(cluster.registry_testbed, [image], convert=True)

    def deploy(node):
        return deploy_with_gear(node.testbed, image)

    # Warm-up wave on nodes that are then dropped: lazy tables are
    # built, worker threads exist, and what is left to measure is the
    # clients.
    measured, cluster.nodes = cluster.nodes[clients:], cluster.nodes[:clients]
    cluster.deploy_wave(deploy)
    if digest:
        viewer_fs_digest(cluster.nodes[0].testbed.gear_driver.containers()[-1].mount)
    cluster.nodes = measured
    gc.collect()
    return cluster, deploy


def _retained_by_wave(image, clients, *, digest=False):
    """Bytes of Python heap a ``clients``-node wave leaves alive — with
    ``digest``, after every mount's filesystem has been digested, as a
    run that checks its outputs does — with the allocation sites that
    hold them (largest first)."""
    cluster, deploy = _warmed_cluster(image, clients, digest=digest)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        cluster.deploy_wave(deploy)
        if digest:
            for node in cluster.nodes:
                mount = node.testbed.gear_driver.containers()[-1].mount
                viewer_fs_digest(mount)
        gc.collect()  # retained means reachable, not merely uncollected
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    sites = after.compare_to(before, "lineno")
    # ``cluster`` is alive here, so everything its nodes keep was counted.
    assert all(node.testbed.gear_driver.containers() for node in cluster.nodes)
    return sum(site.size_diff for site in sites), sites


def _explain(sites, clients):
    return "\n".join(
        f"{site.size_diff / clients:10.0f} B/client  {site.traceback}"
        for site in sites[:15]
    )


def test_a_client_costs_a_bounded_and_linear_share_of_the_heap(nginx):
    small, _ = _retained_by_wave(nginx, 8)
    large, sites = _retained_by_wave(nginx, 16)
    per_client = small / 8
    explain = _explain(sites, 16)
    assert per_client < PER_CLIENT_BUDGET_BYTES, (
        f"a client retains {per_client:.0f} B; top sites of the 16-client "
        f"wave:\n{explain}"
    )
    # Eight more clients cost eight more shares: nothing in the wave
    # grows faster than the clients do, and no fixed part hides in it.
    assert abs((large - small) - 8 * per_client) <= 0.10 * 8 * per_client, (
        f"8 clients retain {small} B, 16 retain {large} B; top sites of the "
        f"16-client wave:\n{explain}"
    )


def test_digesting_every_mount_keeps_a_client_inside_the_budget(nginx):
    # The digest walks the whole tree, so every inode of the image counts
    # as touched: the instant a checked run's resident set peaks.
    retained, sites = _retained_by_wave(nginx, 8, digest=True)
    assert retained / 8 < PER_CLIENT_BUDGET_BYTES, (
        f"a digested client retains {retained / 8:.0f} B; top sites:\n"
        + _explain(sites, 8)
    )


def _minted(tree):
    """Paths of the nodes an index's lower tree has minted so far, read
    without minting more."""
    found, stack = [], [("", tree.root)]
    while stack:
        head, directory = stack.pop()
        for name, node in dict.items(directory.children):
            found.append(f"{head}/{name}")
            if node.children is not None:
                stack.append((f"{head}/{name}", node))
    return sorted(found)


def test_a_deploy_mints_the_index_nodes_its_task_touches_and_no_more(nginx):
    root = make_testbed(bandwidth_mbps=100.0)
    publish_images(root, [nginx], convert=True)
    index = _deployed_client(root, nginx).gear_driver.containers()[-1].index
    read = {path for path, _ in nginx.trace.accesses}
    written = {f"/var/run/task-{i}.out" for i in range(task_for_category(nginx.category).writes)}
    touched = {
        "/".join(parts[:depth])
        for parts in (path.split("/") for path in read | written)
        for depth in range(2, len(parts) + 1)
    }
    minted = _minted(index.tree)
    assert read <= set(minted) <= touched
    assert len(minted) < len(index.archive) // 2
    # A second client mounts the same index: every node it looks up is
    # already minted.
    _deployed_client(root, nginx)
    assert _minted(index.tree) == minted


def _record_objects(objects):
    return [
        obj for obj in objects if type(obj) in (TransferRecord, JournalRecord)
    ]


def test_a_wave_keeps_no_record_object_and_few_tracked_ones(nginx):
    clients = 16
    cluster, deploy = _warmed_cluster(nginx, clients)
    before = gc.get_objects()
    # Other modules' test data may hold records; the wave must add none.
    tracked_before, records_before = len(before), len(_record_objects(before))
    del before
    cluster.deploy_wave(deploy)
    gc.collect()
    alive = gc.get_objects()
    # History is kept (the logs still replay); no object per operation is.
    journals = [node.testbed.gear_driver.journal for node in cluster.nodes]
    assert {len(journal) for journal in journals} == {4 * nginx.trace.file_count}
    assert len(_record_objects(alive)) == records_before
    per_client = (len(alive) - tracked_before) / clients
    assert per_client <= PER_CLIENT_TRACKED_OBJECTS, (
        f"a client adds {per_client:.0f} collector-tracked objects"
    )


def _tracked_by_an_archive(members):
    """Collector-tracked objects an archive of a tree holding ``members``
    files (and a whiteout and an opaque marker) adds, its digest and sizes
    read.  The tree and the one blob are built, and its caches warmed,
    before anything is counted."""
    blob = Blob.synthetic("member", 700)
    assert blob.fingerprint and blob_compressed_size(blob)
    tree = FileSystemTree()
    tree.mkdir("/d")
    tree.set_opaque("/d")
    tree.whiteout("/gone")
    for number in range(members):
        tree.write_at(tree.stat("/d"), f"f{number}", blob)
    gc.collect()
    before = gc.get_objects()  # held, so no object in it frees its id
    archive = LayerArchive.from_tree(tree)
    assert len(archive) == members + 3
    assert archive.digest and archive.compressed_size and archive.file_count
    gc.collect()
    old = set(map(id, before))
    return sum(id(obj) not in old for obj in gc.get_objects())


def test_an_archive_keeps_columns_not_an_object_per_member():
    # Every layer of a registry and every index image keeps its archive:
    # what one keeps may not grow with its members.
    assert _tracked_by_an_archive(2_000) == _tracked_by_an_archive(10)
