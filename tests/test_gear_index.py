"""Gear index: construction, stub encoding, Docker round-trip."""

import pytest

from repro.blob import Blob
from repro.common.errors import GearError, ReadOnlyVfsError
from repro.docker.builder import ImageBuilder
from repro.gear.index import GearFileEntry, GearIndex, STUB_MAGIC, STUB_XATTR
from repro.vfs.inode import FileKind, Inode, Metadata
from repro.vfs.tree import FileSystemTree


def sample_root():
    tree = FileSystemTree()
    tree.mkdir("/bin")
    tree.write_file("/bin/sh", b"shell binary" * 100, meta=Metadata(mode=0o755))
    tree.symlink("/bin/bash", "sh")
    tree.mkdir("/etc/app", parents=True)
    tree.write_file("/etc/app/conf", b"key=value")
    return tree


class TestEntries:
    def test_stub_roundtrip(self):
        entry = GearFileEntry(path="/f", identity="a" * 32, size=123, mode=0o644)
        parsed = GearFileEntry.parse_stub("/f", entry.stub_content(), 0o644)
        assert parsed == entry

    def test_parse_rejects_non_stub(self):
        with pytest.raises(GearError):
            GearFileEntry.parse_stub("/f", "just text", 0o644)

    def test_parse_rejects_malformed(self):
        with pytest.raises(GearError):
            GearFileEntry.parse_stub("/f", f"{STUB_MAGIC}nosize", 0o644)

    def test_unique_id_identities_roundtrip(self):
        # Collision-handled files use uid-… identities containing dashes.
        entry = GearFileEntry(
            path="/f", identity="uid-00000001-abcdef12", size=5, mode=0o600
        )
        parsed = GearFileEntry.parse_stub("/f", entry.stub_content(), 0o600)
        assert parsed.identity == "uid-00000001-abcdef12"
        assert parsed.size == 5


class TestFromTree:
    def test_replaces_files_with_stubs(self):
        index = GearIndex.from_tree("app.gear", "v1", sample_root())
        assert index.file_count == 2
        stub = index.tree.read_bytes("/bin/sh").decode()
        assert stub.startswith(STUB_MAGIC)
        assert STUB_XATTR in index.tree.stat("/bin/sh").meta.xattrs

    def test_preserves_structure_and_metadata(self):
        index = GearIndex.from_tree("app.gear", "v1", sample_root())
        assert index.tree.readlink("/bin/bash") == "sh"
        assert index.tree.is_dir("/etc/app")
        assert index.tree.stat("/bin/sh").meta.mode == 0o755

    def test_entries_carry_fingerprints_and_sizes(self):
        root = sample_root()
        index = GearIndex.from_tree("app.gear", "v1", root)
        entry = index.entries["/bin/sh"]
        assert entry.identity == root.read_blob("/bin/sh").fingerprint
        assert entry.size == len(b"shell binary" * 100)

    def test_identity_override_for_collisions(self):
        root = sample_root()
        ino = root.stat("/etc/app/conf").ino
        index = GearIndex.from_tree(
            "app.gear", "v1", root, identity_for={ino: "uid-x"}
        )
        assert index.entries["/etc/app/conf"].identity == "uid-x"

    def test_index_is_tiny_compared_to_image(self):
        root = sample_root()
        index = GearIndex.from_tree("app.gear", "v1", root)
        assert index.index_bytes < root.total_file_bytes() + 8192
        assert index.represented_bytes == root.total_file_bytes()

    def test_identities_deduplicated(self):
        tree = FileSystemTree()
        tree.write_file("/a", b"same", parents=True)
        tree.write_file("/b", b"same", parents=True)
        index = GearIndex.from_tree("i", "v", tree)
        assert len(list(index.identities())) == 1


class TestLinks:
    def test_link_replaces_a_link_and_counts_it(self):
        index = GearIndex.from_tree("app.gear", "v1", sample_root())
        first = Inode(FileKind.FILE, blob=Blob.from_bytes(b"pool content"))
        second = Inode(FileKind.FILE, blob=Blob.from_bytes(b"newer"))
        index.link("/bin/sh", first)
        assert index.links["/bin/sh"] is first and first.nlink == 2
        index.link("/bin/sh", first)  # over itself: still one link
        assert first.nlink == 2
        index.link("/bin/sh", second)
        assert (first.nlink, second.nlink) == (1, 2)
        index.unlink("/bin/sh")
        assert second.nlink == 1 and not index.links

    def test_the_tree_stays_frozen_and_pristine(self):
        index = GearIndex.from_tree("app.gear", "v1", sample_root())
        before = index.to_image().layers[0].archive.digest
        index.link("/bin/sh", Inode(FileKind.FILE, blob=Blob.from_bytes(b"x")))
        assert index.tree.read_only
        with pytest.raises(ReadOnlyVfsError):
            index.tree.write_file("/bin/sh", b"poison")
        assert STUB_XATTR in index.tree.stat("/bin/sh").meta.xattrs
        assert index.to_image().layers[0].archive.digest == before
        assert STUB_XATTR in index.stub_tree().stat("/bin/sh").meta.xattrs


class TestImageRoundTrip:
    def test_to_image_is_single_layer_flagged(self):
        index = GearIndex.from_tree("app.gear", "v1", sample_root())
        image = index.to_image()
        assert image.gear_index
        assert len(image.layers) == 1

    def test_from_image_restores_everything(self):
        original = GearIndex.from_tree("app.gear", "v1", sample_root())
        restored = GearIndex.from_image(original.to_image())
        assert restored.digest() == original.digest()
        assert restored.entries == original.entries
        assert restored.tree.readlink("/bin/bash") == "sh"
        assert STUB_XATTR in restored.tree.stat("/bin/sh").meta.xattrs

    def test_from_image_rejects_regular_images(self):
        image = ImageBuilder("plain", "v1").add_file("/f", b"x").build()
        with pytest.raises(GearError):
            GearIndex.from_image(image)

    def test_from_image_rejects_multi_layer(self):
        base = ImageBuilder("a", "v1").add_file("/f", b"x").build()
        multi = ImageBuilder("b", "v1", base=base).add_file("/g", b"y").build()
        multi.gear_index = True
        with pytest.raises(GearError):
            GearIndex.from_image(multi)

    def test_config_travels_with_index(self):
        from repro.docker.image import ImageConfig

        index = GearIndex.from_tree(
            "app.gear", "v1", sample_root(),
            config=ImageConfig.make(env={"PATH": "/bin"}),
        )
        restored = GearIndex.from_image(index.to_image())
        assert restored.config.env_dict() == {"PATH": "/bin"}


class TestDigest:
    def test_digest_sensitive_to_entries(self):
        a = GearIndex.from_tree("i", "v", sample_root())
        root = sample_root()
        root.write_file("/etc/app/conf", b"changed")
        b = GearIndex.from_tree("i", "v", root)
        assert a.digest() != b.digest()
