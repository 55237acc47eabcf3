"""Registry garbage collection: mark-and-sweep of unreferenced Gear files."""

import pytest

from repro.common.clock import SimClock
from repro.docker.builder import ImageBuilder
from repro.docker.registry import DockerRegistry
from repro.gear.converter import GearConverter
from repro.gear.gc import collect_garbage, live_identities
from repro.gear.registry import GearRegistry


@pytest.fixture
def env():
    clock = SimClock()
    docker_registry = DockerRegistry()
    gear_registry = GearRegistry()
    converter = GearConverter(clock, docker_registry, gear_registry)
    shared = ImageBuilder("shared", "v1").add_file("/common", b"same" * 500).build()
    only_a = (
        ImageBuilder("aaa", "v1", base=shared)
        .add_file("/a-only", b"aaa" * 500)
        .build()
    )
    only_b = (
        ImageBuilder("bbb", "v1", base=shared)
        .add_file("/b-only", b"bbb" * 500)
        .build()
    )
    docker_registry.push_image(only_a)
    docker_registry.push_image(only_b)
    converter.convert("aaa:v1")
    converter.convert("bbb:v1")
    return docker_registry, gear_registry


class TestMark:
    def test_live_set_covers_all_entries(self, env):
        docker_registry, gear_registry = env
        live = live_identities(docker_registry)
        assert live == set(gear_registry.identities())

    def test_regular_images_do_not_mark(self, env):
        docker_registry, _ = env
        # The original (non-index) manifests contribute nothing.
        extra = ImageBuilder("plain", "v1").add_file("/x", b"y").build()
        docker_registry.push_image(extra)
        before = live_identities(docker_registry)
        assert extra.layers[0].digest not in before


class TestSweep:
    def test_nothing_collected_while_all_referenced(self, env):
        docker_registry, gear_registry = env
        report = collect_garbage(docker_registry, gear_registry)
        assert report.deleted_files == 0
        assert report.indexes_scanned == 2

    def test_deleting_one_index_frees_only_its_private_files(self, env):
        docker_registry, gear_registry = env
        files_before = gear_registry.file_count
        docker_registry.delete_manifest("aaa.gear:v1")
        report = collect_garbage(docker_registry, gear_registry)
        # /a-only is unreferenced; /common is still used by bbb.
        assert report.deleted_files == 1
        assert gear_registry.file_count == files_before - 1
        assert report.deleted_bytes > 0

    def test_deleting_all_indexes_frees_everything(self, env):
        docker_registry, gear_registry = env
        docker_registry.delete_manifest("aaa.gear:v1")
        docker_registry.delete_manifest("bbb.gear:v1")
        report = collect_garbage(docker_registry, gear_registry)
        assert gear_registry.file_count == 0
        assert report.live_files == 0
        assert report.deleted_files == 3

    def test_dry_run_deletes_nothing(self, env):
        docker_registry, gear_registry = env
        docker_registry.delete_manifest("aaa.gear:v1")
        before = gear_registry.file_count
        report = collect_garbage(docker_registry, gear_registry, dry_run=True)
        assert report.deleted_files == 1
        assert gear_registry.file_count == before

    def test_gc_is_idempotent(self, env):
        docker_registry, gear_registry = env
        docker_registry.delete_manifest("aaa.gear:v1")
        collect_garbage(docker_registry, gear_registry)
        second = collect_garbage(docker_registry, gear_registry)
        assert second.deleted_files == 0

    def test_survivors_still_deployable(self, env):
        docker_registry, gear_registry = env
        docker_registry.delete_manifest("aaa.gear:v1")
        collect_garbage(docker_registry, gear_registry)
        # bbb still resolves every entry it references.
        live = live_identities(docker_registry)
        for identity in live:
            assert gear_registry.query(identity)

    def test_sweep_never_downloads_dead_files(self, env, monkeypatch):
        # The sweep must size candidates from store metadata; pulling
        # every dead payload would make GC cost a mirror of the garbage.
        docker_registry, gear_registry = env
        docker_registry.delete_manifest("aaa.gear:v1")

        def forbidden(identity):
            raise AssertionError(f"GC downloaded {identity!r}")

        monkeypatch.setattr(gear_registry, "download", forbidden)
        report = collect_garbage(docker_registry, gear_registry)
        assert report.deleted_files == 1
        assert report.deleted_bytes > 0

    def test_deleted_bytes_come_from_stored_metadata(self, env):
        docker_registry, gear_registry = env
        docker_registry.delete_manifest("aaa.gear:v1")
        dry = collect_garbage(docker_registry, gear_registry, dry_run=True)
        expected = sum(
            gear_registry.stat(identity).stored_size
            for identity in dry.deleted_identities
        )
        assert dry.deleted_bytes == expected


class TestMarkEpochGuard:
    def test_file_uploaded_during_mark_is_never_swept(self, env, monkeypatch):
        # The push protocol uploads Gear files *before* the index that
        # references them, so a file landing after the mark phase began
        # may belong to an index the mark never saw.  Simulate the race:
        # an upload arrives while live_identities() is walking manifests.
        import repro.gear.gc as gc_module
        from repro.blob import Blob
        from repro.gear.gearfile import GearFile

        docker_registry, gear_registry = env
        racer = GearFile.from_blob(Blob.synthetic("mid-mark-upload", 800))
        real_mark = gc_module.live_identities

        def racing_mark(registry):
            gear_registry.upload(racer)  # client pushing a new image
            return real_mark(registry)

        monkeypatch.setattr(gc_module, "live_identities", racing_mark)
        report = collect_garbage(docker_registry, gear_registry)
        # The racer is unreferenced (its index has not been pushed yet)
        # but must be spared, not reclaimed.
        assert report.skipped_recent == 1
        assert racer.identity not in report.deleted_identities
        assert gear_registry.query(racer.identity)

    def test_spared_file_is_collected_next_pass_if_still_dead(self, env):
        from repro.blob import Blob
        from repro.gear.gearfile import GearFile

        docker_registry, gear_registry = env
        orphan = GearFile.from_blob(Blob.synthetic("orphan", 600))
        # Upload after snapshotting would be spared; upload *before* the
        # pass starts is fair game on the very next collection.
        gear_registry.upload(orphan)
        report = collect_garbage(docker_registry, gear_registry)
        assert report.skipped_recent == 0
        assert orphan.identity in report.deleted_identities
        assert not gear_registry.query(orphan.identity)


class TestGcVsEdgeDeploy:
    """GC racing a concurrent *peer-served* deploy (edge tier).

    Two hazards: (1) a collection pass runs while a peer is mid-serve of
    a freshly pushed file whose index is still in flight — the mark
    epoch must spare it so the deploy's registry fallback still
    resolves; (2) a sweep plus churn removes a fingerprint from the
    registry *and* its last holder from the site — the tracker must not
    stay pointed at it.
    """

    def _edge_env(self, small_corpus):
        from repro.bench.environment import (
            attach_edge,
            make_testbed,
            publish_images,
        )

        root = attach_edge(make_testbed())
        generated = small_corpus.by_series["nginx"][0]
        publish_images(root, [generated], convert=True)
        return root, generated

    def test_mark_epoch_keeps_mid_serve_file_alive(
        self, small_corpus, monkeypatch
    ):
        import repro.gear.gc as gc_module
        from repro.bench.deploy import deploy_with_gear
        from repro.blob import Blob
        from repro.gear.gearfile import GearFile

        root, generated = self._edge_env(small_corpus)
        first = root.edge.client()
        deploy_with_gear(first, generated)
        root.edge.gossip()

        # A new image version is mid-push: its Gear files land before
        # the index that will reference them (§III-C).
        racer = GearFile.from_blob(Blob.synthetic("in-flight-push", 800))
        second = root.edge.client()
        real_mark = gc_module.live_identities
        served_before = root.edge.stats.peer_hits

        def racing_mark(registry):
            # Both races fire while the mark walks manifests: the push
            # completes its file upload, and a peer-served deploy runs.
            root.gear_registry.upload(racer)
            deploy_with_gear(second, generated)
            return real_mark(registry)

        monkeypatch.setattr(gc_module, "live_identities", racing_mark)
        report = gc_module.collect_garbage(
            root.docker_registry, root.gear_registry
        )

        # The in-flight upload was spared, not reclaimed.
        assert report.skipped_recent == 1
        assert racer.identity not in report.deleted_identities
        assert root.gear_registry.query(racer.identity)
        # The peer-served deploy completed mid-GC and nothing it read
        # was collected out from under it.
        assert root.edge.stats.peer_hits > served_before
        live = gc_module.live_identities(root.docker_registry)
        for identity in live:
            assert root.gear_registry.query(identity)
        assert root.edge.audit_integrity() == []

    def test_sweep_during_churn_never_strands_tracker(self, small_corpus):
        from repro.bench.deploy import deploy_with_gear
        from repro.bench.environment import publish_images

        root, generated = self._edge_env(small_corpus)
        keeper = small_corpus.by_series["tomcat"][0]
        publish_images(root, [keeper], convert=True)

        first = root.edge.client()
        deploy_with_gear(first, generated)
        second = root.edge.client()
        deploy_with_gear(second, keeper)
        root.edge.gossip()

        # The operator retires the nginx image; its now-unreferenced
        # files are swept from the registry while peers still hold and
        # advertise cached copies.
        root.docker_registry.delete_manifest(
            generated.reference.replace(":", ".gear:")
        )
        report = collect_garbage(root.docker_registry, root.gear_registry)
        collected = set(report.deleted_identities)
        assert collected

        site = root.edge.sites[0]
        # Cached copies keep the tracker entries alive for now — that is
        # fine, a peer can still serve what it physically holds.
        still_tracked = collected & set(site.tracker.identities())
        assert still_tracked

        # Churn takes the holder away; the next gossip refresh must drop
        # every entry no online peer can back.
        root.edge.peers[0].online = False
        root.edge.gossip()
        for identity in site.tracker.identities():
            holders = site.tracker.resolve(identity)
            assert holders, identity
            for name in holders:
                peer = site.peer(name)
                assert peer.online and peer.holds(identity)
        # In particular nothing collected-and-unheld is still advertised.
        for identity in collected:
            for name in site.tracker.resolve(identity):
                assert site.peer(name).online
                assert site.peer(name).holds(identity)
