"""Layers, images, manifests, and config."""

import pytest

from repro.common.errors import ReproError
from repro.docker.image import Image, ImageConfig, Layer, Manifest
from repro.vfs.tar import LayerArchive
from repro.vfs.tree import FileSystemTree


def layer_from_files(files):
    """A standalone layer from ``(path, content)`` pairs."""
    tree = FileSystemTree()
    for path, content in files:
        tree.write_file(path, content, parents=True)
    return Layer(LayerArchive.from_tree(tree))


def make_layer(*files):
    return layer_from_files(files or [("/f", b"content")])


class TestLayer:
    def test_digest_is_content_addressed(self):
        assert make_layer(("/a", b"x")) == make_layer(("/a", b"x"))
        assert make_layer(("/a", b"x")) != make_layer(("/a", b"y"))

    def test_sizes(self):
        layer = make_layer(("/a", b"x" * 1000))
        assert layer.uncompressed_size > 1000
        assert layer.compressed_size < layer.uncompressed_size
        assert layer.file_count == 1

    def test_diff_tree_is_readable(self):
        layer = make_layer(("/a/b", b"deep"))
        tree = layer.diff_tree()
        assert tree.read_bytes("/a/b") == b"deep"

    def test_hashable(self):
        assert len({make_layer(("/a", b"x")), make_layer(("/a", b"x"))}) == 1


class TestImageConfig:
    def test_make_normalizes(self):
        config = ImageConfig.make(env={"B": "2", "A": "1"}, cmd=["run"])
        assert config.env == (("A", "1"), ("B", "2"))
        assert config.env_dict() == {"A": "1", "B": "2"}

    def test_identity_tokens_cover_fields(self):
        config = ImageConfig.make(
            env={"X": "1"}, entrypoint=["/e"], cmd=["c"], workdir="/w",
            labels={"l": "v"},
        )
        tokens = config.identity_tokens()
        assert "env:X=1" in tokens
        assert "entrypoint:/e" in tokens
        assert "workdir:/w" in tokens
        assert "label:l=v" in tokens


class TestImage:
    def test_requires_layers(self):
        with pytest.raises(ReproError):
            Image("a", "b", [])

    def test_reference(self):
        image = Image("nginx", "1.17", [make_layer()])
        assert image.reference == "nginx:1.17"

    def test_flatten_applies_layers_in_order(self):
        bottom = make_layer(("/f", b"old"), ("/keep", b"k"))
        top = make_layer(("/f", b"new"))
        image = Image("i", "t", [bottom, top])
        tree = image.flatten()
        assert tree.read_bytes("/f") == b"new"
        assert tree.read_bytes("/keep") == b"k"

    def test_sizes_sum_layers(self):
        a, b = make_layer(("/a", b"1")), make_layer(("/b", b"22"))
        image = Image("i", "t", [a, b])
        assert image.uncompressed_size == a.uncompressed_size + b.uncompressed_size
        assert image.file_count == 2


class TestManifest:
    def test_from_image(self):
        image = Image("nginx", "1.17", [make_layer()], ImageConfig.make(env={"A": "1"}))
        manifest = image.manifest()
        assert manifest.reference == "nginx:1.17"
        assert manifest.layer_digests == (image.layers[0].digest,)
        assert manifest.layer_sizes == (image.layers[0].compressed_size,)
        assert manifest.config.env_dict() == {"A": "1"}
        assert not manifest.gear_index

    def test_digest_covers_config(self):
        image_a = Image("i", "t", [make_layer()], ImageConfig.make(env={"A": "1"}))
        image_b = Image("i", "t", [make_layer()], ImageConfig.make(env={"A": "2"}))
        assert image_a.manifest().digest != image_b.manifest().digest

    def test_misaligned_lists_rejected(self):
        layer = make_layer()
        with pytest.raises(ReproError):
            Manifest(
                name="i", tag="t",
                layer_digests=(layer.digest,),
                layer_sizes=(),
                config=ImageConfig.make(),
            )

    def test_size_scales_with_layers(self):
        one = Image("i", "t", [make_layer()]).manifest()
        two = Image("i", "t", [make_layer(), make_layer(("/x", b"y"))]).manifest()
        assert two.size_bytes > one.size_bytes


def _nodes(tree):
    return [
        (path, node.kind, node.meta,
         node.blob.fingerprint if node.blob is not None else None,
         node.symlink_target)
        for path, node in tree.walk("/", include_whiteouts=True)
    ]


def test_flatten_from_the_bottom_template_is_the_all_layers_unpack(small_corpus):
    """``flatten`` clones the bottom layer's extraction template and
    applies the layers above; applying every layer to an empty tree is
    the reference, node for node, on every image of a corpus."""
    for generated in small_corpus.images:
        image = generated.image
        reference = FileSystemTree()
        for layer in image.layers:
            layer.archive.apply_to(reference)
        assert _nodes(image.flatten()) == _nodes(reference), image.reference
    # The template is the bottom archive's own, kept once and frozen.
    bottom = small_corpus.images[0].image.layers[0].archive
    assert bottom._extract_template is not None and bottom._extract_template.read_only
