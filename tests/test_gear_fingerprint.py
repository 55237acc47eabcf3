"""Collision probability bound (eq. 1) and collision handling."""

import pytest

from repro.blob import Blob, Chunk
from repro.gear.fingerprint import (
    CollisionTracker,
    MD5_BITS,
    collision_probability_bound,
)


class TestBound:
    def test_matches_paper_example(self):
        # ~5e10 deduplicated files -> probability ~5e-18 (§III-B).
        p = collision_probability_bound(int(5e10))
        assert 1e-18 < p < 1e-17

    def test_zero_and_one_file(self):
        assert collision_probability_bound(0) == 0.0
        assert collision_probability_bound(1) == 0.0

    def test_monotonic_in_n(self):
        assert collision_probability_bound(10**6) < collision_probability_bound(10**9)

    def test_below_disk_error_rate_at_hub_scale(self):
        # The design argument: collisions are rarer than disk errors
        # (1e-12..1e-15).
        assert collision_probability_bound(int(5e10)) < 1e-15

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            collision_probability_bound(-1)

    def test_formula(self):
        n = 1000
        assert collision_probability_bound(n) == pytest.approx(
            n * (n - 1) / 2 / 2**MD5_BITS
        )


class TestCollisionTracker:
    def test_normal_files_get_fingerprints(self):
        tracker = CollisionTracker()
        blob = Blob.from_bytes(b"content")
        identity, collided = tracker.register(blob)
        assert identity == blob.fingerprint
        assert not collided

    def test_identical_content_reuses_fingerprint(self):
        tracker = CollisionTracker()
        a = Blob.from_bytes(b"same")
        b = Blob.from_bytes(b"same")
        tracker.register(a)
        identity, collided = tracker.register(b)
        assert identity == a.fingerprint
        assert not collided
        assert tracker.collisions_detected == 0

    def test_forged_collision_gets_unique_id(self):
        # Construct two *different* chunk sequences with a forced-equal
        # fingerprint by building blobs whose fingerprint we control via
        # a stub subclass of Blob.
        class ForgedBlob(Blob):
            @property
            def fingerprint(self):
                from repro.common.hashing import Fingerprint

                return Fingerprint("f" * 32)

        a = ForgedBlob([Chunk(seed="a", size=10)])
        b = ForgedBlob([Chunk(seed="b", size=10)])
        tracker = CollisionTracker()
        id_a, collided_a = tracker.register(a)
        id_b, collided_b = tracker.register(b)
        assert not collided_a
        assert collided_b
        assert id_b != id_a
        assert id_b.startswith("uid-")
        assert tracker.collisions_detected == 1

    def test_unique_ids_are_distinct(self):
        class ForgedBlob(Blob):
            @property
            def fingerprint(self):
                from repro.common.hashing import Fingerprint

                return Fingerprint("f" * 32)

        tracker = CollisionTracker()
        tracker.register(ForgedBlob([Chunk(seed="x", size=1)]))
        id1, _ = tracker.register(ForgedBlob([Chunk(seed="y", size=1)]))
        id2, _ = tracker.register(ForgedBlob([Chunk(seed="z", size=1)]))
        assert id1 != id2


class _Forged(Blob):
    """Any content, one fingerprint: a collision on demand."""

    @property
    def fingerprint(self):
        from repro.common.hashing import Fingerprint

        return Fingerprint("f" * 32)


class TestLazySignature:
    def test_the_same_content_is_never_compared_token_by_token(self, monkeypatch):
        compared = []
        blob, same = Blob.synthetic("file", 300_000), Blob.synthetic("file", 300_000)
        assert blob.fingerprint == same.fingerprint  # hashed before the watch
        token = Chunk.token
        monkeypatch.setattr(
            Chunk, "token", property(lambda chunk: compared.append(chunk) or token.fget(chunk))
        )
        tracker = CollisionTracker()
        for again in (blob, blob, same):
            assert tracker.register(again) == (blob.fingerprint, False)
        assert compared == [] and tracker.collisions_detected == 0

    def test_a_forced_collision_in_a_conversion_yields_a_uid_identity(self):
        from repro.common.clock import SimClock
        from repro.docker.builder import ImageBuilder
        from repro.docker.registry import DockerRegistry
        from repro.gear.converter import GearConverter
        from repro.gear.registry import GearRegistry

        docker_registry, gear_registry = DockerRegistry(), GearRegistry()
        converter = GearConverter(SimClock(), docker_registry, gear_registry)
        image = (
            ImageBuilder("forged", "v1")
            .add_file("/a", _Forged([Chunk(seed="a", size=10)]))
            .add_file("/b", _Forged([Chunk(seed="b", size=10)]))
            .add_file("/c", _Forged([Chunk(seed="a", size=10)]))
            .build()
        )
        docker_registry.push_image(image)
        index, report = converter.convert("forged:v1")
        identities = {path: entry.identity for path, entry in index.entries.items()}
        assert identities["/a"] == identities["/c"] == "f" * 32
        assert identities["/b"].startswith("uid-") and report.collisions == 1
        assert gear_registry.query(identities["/b"])
