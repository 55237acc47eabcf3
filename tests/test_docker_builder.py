"""ImageBuilder: Dockerfile-like image construction."""

import pytest

from repro.common.errors import ReproError
from repro.docker.builder import ImageBuilder
from repro.docker.image import Image, Layer
from repro.vfs.tar import LayerArchive
from repro.vfs.tree import FileSystemTree


def image_from_tree(name, tag, tree, *, config=None, gear_index=False):
    """Package a whole tree as a single-layer image: how a hand-built
    Gear index reaches a registry without the converter (§III-C)."""
    archive = LayerArchive.from_tree(tree)
    return Image(name, tag, [Layer(archive)], config, gear_index=gear_index)


class TestBuilder:
    def test_single_layer_build(self):
        image = (
            ImageBuilder("app", "v1")
            .add_file("/bin/app", b"binary", mode=0o755)
            .build()
        )
        assert len(image.layers) == 1
        tree = image.flatten()
        assert tree.read_bytes("/bin/app") == b"binary"
        assert tree.stat("/bin/app").meta.mode == 0o755

    def test_base_layers_are_shared_objects(self):
        base = ImageBuilder("base", "v1").add_file("/b", b"base").build()
        child = ImageBuilder("app", "v1", base=base).add_file("/a", b"app").build()
        assert child.layers[0] is base.layers[0]
        assert len(child.layers) == 2

    def test_child_inherits_config(self):
        base = (
            ImageBuilder("base", "v1")
            .with_env(A="1")
            .add_file("/b", b"x")
            .build()
        )
        child = ImageBuilder("app", "v1", base=base).add_file("/a", b"y").build()
        assert child.config.env_dict() == {"A": "1"}

    def test_with_env_merges(self):
        image = (
            ImageBuilder("app", "v1")
            .with_env(A="1")
            .with_env(B="2")
            .add_file("/f", b"x")
            .build()
        )
        assert image.config.env_dict() == {"A": "1", "B": "2"}

    def test_remove_produces_whiteout_layer(self):
        base = ImageBuilder("base", "v1").add_file("/doomed", b"x").build()
        child = ImageBuilder("app", "v1", base=base).remove("/doomed").build()
        assert not child.flatten().exists("/doomed")

    def test_commit_layer_resets_diff(self):
        builder = ImageBuilder("app", "v1").add_file("/one", b"1")
        builder.commit_layer()
        builder.add_file("/two", b"2")
        image = builder.build()
        assert len(image.layers) == 2
        assert image.flatten().read_bytes("/one") == b"1"

    def test_commit_without_changes_fails(self):
        with pytest.raises(ReproError):
            ImageBuilder("app", "v1").commit_layer()

    def test_build_without_layers_fails(self):
        with pytest.raises(ReproError):
            ImageBuilder("app", "v1").build()

    def test_symlink_and_mkdir(self):
        image = (
            ImageBuilder("app", "v1")
            .mkdir("/opt/app")
            .add_file("/opt/app/bin", b"b")
            .add_symlink("/opt/run", "/opt/app/bin")
            .build()
        )
        tree = image.flatten()
        assert tree.readlink("/opt/run") == "/opt/app/bin"


class TestImageFromTree:
    def test_packages_whole_tree_as_one_layer(self):
        tree = FileSystemTree()
        tree.write_file("/a/b", b"x", parents=True)
        image = image_from_tree("idx", "v1", tree, gear_index=True)
        assert len(image.layers) == 1
        assert image.gear_index
        assert image.manifest().gear_index
        assert image.flatten().read_bytes("/a/b") == b"x"
