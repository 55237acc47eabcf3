"""Corpus generation: determinism, structure, traces, sharing."""

import pytest
from hypothesis import given, strategies as st

from repro.blob import Blob
from repro.common.errors import ReproError
from repro.vfs.inode import Metadata
from repro.vfs.tar import LayerArchive
from repro.vfs.tree import FileSystemTree
from repro.workloads.corpus import (
    _ROLE_MODE,
    Corpus,
    CorpusBuilder,
    CorpusConfig,
    _FileSet,
    _layer_from_filesets,
)
from tests.conftest import image_of


CONFIG = CorpusConfig(
    seed=7,
    file_scale=0.25,
    size_scale=0.1,
    series_names=("nginx", "tomcat"),
    versions_cap=4,
)


class TestSelection:
    def test_dependencies_pulled_in(self, small_corpus):
        # nginx needs debian; tomcat needs java which needs debian.
        assert "debian" in small_corpus.by_series
        assert "java" in small_corpus.by_series

    def test_versions_cap(self, small_corpus):
        assert len(small_corpus.by_series["nginx"]) == 4

    def test_unknown_series_rejected(self):
        with pytest.raises(ReproError):
            CorpusBuilder(
                CorpusConfig(series_names=("not-real",))
            ).build()


class TestDeterminism:
    def test_same_seed_same_corpus(self, small_corpus):
        other = CorpusBuilder(CONFIG).build()
        assert [g.reference for g in other.images] == [
            g.reference for g in small_corpus.images]
        for a, b in zip(other.images, small_corpus.images):
            assert [l.digest for l in a.image.layers] == [
                l.digest for l in b.image.layers
            ]
            assert a.trace.accesses == b.trace.accesses

    def test_different_seed_differs(self, small_corpus):
        other = CorpusBuilder(
            CorpusConfig(
                seed=99,
                file_scale=0.25,
                size_scale=0.1,
                series_names=("nginx", "tomcat"),
                versions_cap=4,
            )
        ).build()
        ours = small_corpus.by_series["nginx"][0].image.layers[-1].digest
        theirs = other.by_series["nginx"][0].image.layers[-1].digest
        assert ours != theirs


class TestStructure:
    def test_app_images_stack_on_distro_base(self, small_corpus):
        nginx = small_corpus.by_series["nginx"][0]
        debian = small_corpus.by_series["debian"][0]
        assert nginx.image.layers[0].digest == debian.image.layers[0].digest
        assert len(nginx.image.layers) == 4  # base + runtime + app + config

    def test_consecutive_versions_share_base_layer(self, small_corpus):
        v1, v2 = small_corpus.by_series["nginx"][:2]
        assert v1.image.layers[0].digest == v2.image.layers[0].digest

    def test_app_layer_differs_between_versions(self, small_corpus):
        v1, v2 = small_corpus.by_series["nginx"][:2]
        assert v1.image.layers[2].digest != v2.image.layers[2].digest

    def test_borrowed_runtime_shares_files_not_layers(self, small_corpus):
        # tomcat borrows java's runtime: same file contents, distinct layer.
        tomcat = small_corpus.by_series["tomcat"][0]
        java = small_corpus.by_series["java"][0]
        tomcat_runtime = tomcat.image.layers[1]
        java_runtime = java.image.layers[1]
        assert tomcat_runtime.digest != java_runtime.digest
        tomcat_files = {
            node.blob.fingerprint
            for _, node in tomcat_runtime.diff_tree().iter_files()
        }
        java_files = {
            node.blob.fingerprint
            for _, node in java_runtime.diff_tree().iter_files()
        }
        shared = tomcat_files & java_files
        assert len(shared) > 0.8 * len(java_files)

    def test_versions_share_files(self, small_corpus):
        v1, v2 = small_corpus.by_series["tomcat"][:2]
        files_v1 = {
            node.blob.fingerprint for _, node in v1.image.flatten().iter_files()
        }
        files_v2 = {
            node.blob.fingerprint for _, node in v2.image.flatten().iter_files()
        }
        overlap = len(files_v1 & files_v2) / len(files_v1)
        assert overlap > 0.4  # low-churn Web Component series

    def test_config_is_copied_from_spec(self, small_corpus):
        nginx = small_corpus.by_series["nginx"][0]
        assert nginx.image.config.env_dict()["APP"] == "nginx"


class TestTraces:
    def test_trace_paths_exist_in_image(self, small_corpus):
        for generated in small_corpus.by_series["tomcat"]:
            tree = generated.image.flatten()
            for path, size in generated.trace.accesses:
                assert tree.is_file(path), path
                assert tree.read_blob(path).size == size

    def test_trace_is_a_fraction_of_image(self, small_corpus):
        for generated in small_corpus.images:
            read = sum(size for _, size in generated.trace.accesses)
            ratio = read / generated.image.uncompressed_size
            assert 0.02 < ratio < 0.6

    def test_trace_has_compute_time(self, small_corpus):
        for generated in small_corpus.images:
            assert generated.trace.compute_s > 0

    def test_consecutive_traces_share_content(self, small_corpus):
        v1, v2 = small_corpus.by_series["tomcat"][:2]
        t1 = v1.image.flatten()
        t2 = v2.image.flatten()
        fp1 = {t1.read_blob(p).fingerprint for p, _ in v1.trace.accesses}
        fp2 = {t2.read_blob(p).fingerprint for p, _ in v2.trace.accesses}
        assert fp1 & fp2  # Fig. 2: necessary data overlaps across versions


class TestCorpusApi:
    def test_an_image_knows_its_tag_and_version_position(self, small_corpus):
        generated = image_of(small_corpus, "nginx:v2")
        assert generated.tag == "v2"
        assert generated.tag_index == 1


#: Files under nested, shared directories; leaf names never name a
#: directory, and a small pool makes paths repeat across filesets.
_PATHS = st.builds(
    lambda dirs, leaf: "/" + "/".join([*dirs, leaf]),
    st.lists(st.sampled_from(["a", "b", "a-b", "usr"]), max_size=3),
    st.sampled_from(["f0", "f1", "f0.so"]),
)
_FILESETS = st.lists(
    st.dictionaries(_PATHS, st.sampled_from(["bin", "lib"]), max_size=6),
    min_size=1, max_size=3,
)


@given(_FILESETS)
def test_a_layer_is_built_from_its_entries(drawn):
    filesets = []
    for number, roles in enumerate(drawn):
        fileset = _FileSet(f"ns{number}", "/")
        fileset.role = dict(roles)
        fileset.files = {
            path: Blob.synthetic(f"{number}{path}", 300 * len(path))
            for path in roles
        }
        filesets.append(fileset)
    tree = FileSystemTree()  # the reference: write a tree, archive it
    for fileset in filesets:
        for path, blob in fileset.files.items():
            meta = Metadata(mode=_ROLE_MODE[fileset.role[path]])
            tree.write_file(path, blob, meta=meta, parents=True)
    expected = LayerArchive.from_tree(tree)
    archive = _layer_from_filesets(filesets).archive
    assert archive.digest == expected.digest
    assert archive.entries == expected.entries
    assert archive.uncompressed_size == expected.uncompressed_size
    assert archive.compressed_size == expected.compressed_size
