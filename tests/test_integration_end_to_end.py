"""End-to-end integration: the full Gear life cycle on one testbed."""

import pytest

from repro.bench.environment import make_testbed, publish_images
from repro.gear.commit import commit_container
from repro.gear.index import GearIndex


class TestFullLifecycle:
    def test_publish_convert_deploy_run_commit_redeploy(self, small_corpus):
        testbed = make_testbed(bandwidth_mbps=100)
        publish_images(testbed, small_corpus.images, convert=True)

        # Deploy and run the startup task.
        from repro.bench.deploy import deploy_with_gear

        generated = small_corpus.get("nginx:v1")
        result = deploy_with_gear(testbed, generated)
        assert result.files_fetched > 0

        # Modify the running container and commit it as a new Gear image.
        container = testbed.gear_driver.containers()[0]
        container.mount.write_file("/opt/patch.bin", b"hotfix" * 100, parents=True)
        new_index, report = commit_container(
            container, "nginx.gear", "patched",
            daemon=testbed.daemon, transport=testbed.transport,
        )
        assert report.index_pushed

        # A different client deploys the committed image and sees both the
        # patch and the original content.
        fresh = testbed.fresh_client()
        patched, _ = fresh.gear_driver.deploy("nginx.gear:patched")
        assert patched.mount.read_bytes("/opt/patch.bin") == b"hotfix" * 100
        original_path = generated.trace.accesses[-1][0]
        assert patched.mount.read_blob(original_path).size > 0

    def test_mixed_docker_and_gear_clients_coexist(self, small_corpus):
        testbed = make_testbed()
        publish_images(testbed, small_corpus.images, convert=True)
        docker_client = testbed.fresh_client()
        gear_client = testbed.fresh_client()

        docker_client.daemon.pull("nginx:v1")
        docker_container = docker_client.daemon.run("nginx:v1")
        gear_container, _ = gear_client.gear_driver.deploy("nginx.gear:v1")

        path = small_corpus.get("nginx:v1").trace.accesses[0][0]
        assert (
            docker_container.mount.read_bytes(path)
            == gear_container.mount.read_bytes(path)
        )

    def test_gear_root_fs_equals_docker_root_fs(self, small_corpus):
        """The viewer must present exactly the image's filesystem."""
        testbed = make_testbed()
        publish_images(testbed, small_corpus.images, convert=True)
        generated = small_corpus.get("tomcat:v2")

        docker_client = testbed.fresh_client()
        docker_client.daemon.pull("tomcat:v2")
        docker_container = docker_client.daemon.run("tomcat:v2")
        gear_container, _ = testbed.gear_driver.deploy("tomcat.gear:v2")

        docker_walk = [
            (path, node.kind) for path, node in docker_container.mount.walk("/")
        ]
        gear_walk = [
            (path, node.kind) for path, node in gear_container.mount.walk("/")
        ]
        assert docker_walk == gear_walk

        # Contents match for every traced file (reading faults them in).
        for path, _ in generated.trace.accesses:
            assert (
                gear_container.mount.read_blob(path).fingerprint
                == docker_container.mount.read_blob(path).fingerprint
            )

    def test_registry_files_cover_every_index_entry(self, small_corpus):
        testbed = make_testbed()
        publish_images(testbed, small_corpus.images, convert=True)
        for reference in ("nginx.gear:v1", "tomcat.gear:v3"):
            testbed.gear_driver.pull_index(reference)
            index = testbed.gear_driver.get_index(reference)
            for entry in index.entries.values():
                assert testbed.gear_registry.query(entry.identity), entry.path

    def test_index_round_trip_through_real_registry_path(self, small_corpus):
        testbed = make_testbed()
        publish_images(testbed, small_corpus.images, convert=True)
        manifest = testbed.docker_registry.get_manifest("nginx.gear:v1")
        assert manifest.gear_index
        layer = testbed.docker_registry.get_layer(manifest.layer_digests[0])
        from repro.docker.image import Image

        index = GearIndex.from_image(
            Image(manifest.name, manifest.tag, [layer], manifest.config,
                  gear_index=True)
        )
        generated = small_corpus.get("nginx:v1")
        assert len(index.entries) == len(
            list(generated.image.flatten().iter_files())
        )


class TestBandwidthAccountingConsistency:
    def test_link_bytes_match_component_accounting(self, small_corpus):
        from repro.bench.deploy import deploy_with_gear

        testbed = make_testbed()
        publish_images(testbed, small_corpus.images, convert=True)
        result = deploy_with_gear(testbed, small_corpus.get("nginx:v1"))
        container = testbed.gear_driver.containers()[0]
        stats = container.mount.fault_stats
        # Network bytes = index pull + per-fetch payloads + RPC framing.
        assert result.network_bytes >= stats.remote_bytes
        assert result.files_fetched == stats.remote_fetches

    def test_virtual_clock_monotonic_through_experiment(self, small_corpus):
        from repro.bench.deploy import deploy_with_docker, deploy_with_gear

        testbed = make_testbed()
        publish_images(testbed, small_corpus.images, convert=True)
        checkpoints = [testbed.clock.now]
        for generated in small_corpus.by_series["nginx"]:
            deploy_with_gear(testbed, generated)
            checkpoints.append(testbed.clock.now)
        assert checkpoints == sorted(checkpoints)
        assert checkpoints[-1] > checkpoints[0]
