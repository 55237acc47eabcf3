"""Layer archives: determinism, digests, whiteout encoding, application,
and the member columns against the records they replaced."""

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.blob import Blob
from repro.blob.compressibility import blob_compressed_size
from repro.common.errors import VfsError
from repro.common.hashing import sha256_tokens
from repro.vfs.inode import FileKind, Metadata
from repro.vfs.tar import (
    LayerArchive, OPAQUE_MARKER, TarEntry, WHITEOUT_PREFIX, _digest_tokens, _row_of,
)
from repro.vfs.tree import FileSystemTree
from tests.test_vfs_oracle import (
    apply_reference,
    extract_diff_reference,
    outcome_and_listing,
    tar_entries,
)


def make_tree():
    t = FileSystemTree()
    t.mkdir("/bin")
    t.write_file("/bin/sh", b"shell", meta=Metadata(mode=0o755))
    t.symlink("/bin/bash", "sh")
    t.mkdir("/etc")
    t.write_file("/etc/conf", b"key=value")
    return t


def as_row(entry):
    """``entry``'s fields in declaration order: what ``from_rows`` takes."""
    return tuple(getattr(entry, field.name) for field in dataclasses.fields(entry))


def rejected(path, kind, mode):
    """A member that breaks a rule, built as a record and as a row: each
    of the two constructors must refuse it."""
    builds = (
        lambda: TarEntry(path=path, kind=kind, mode=mode, uid=0, gid=0),
        lambda: LayerArchive.from_rows([(path, kind, mode, 0, 0, None, None)]),
    )
    for build in builds:
        with pytest.raises(VfsError):
            build()


class TestEntries:
    def test_file_entry_requires_blob(self):
        rejected("/f", FileKind.FILE, 0o644)

    def test_symlink_entry_requires_target(self):
        rejected("/l", FileKind.SYMLINK, 0o777)

    def test_whiteout_kind_rejected(self):
        rejected("/w", FileKind.WHITEOUT, 0)

    def test_archived_size_includes_header_and_padding(self):
        entry = TarEntry(
            path="/f", kind=FileKind.FILE, mode=0o644, uid=0, gid=0,
            blob=Blob.from_bytes(b"x" * 513),
        )
        # header + padded data, then the two blocks that end an archive
        assert LayerArchive([entry]).uncompressed_size == 512 + 1024 + 2 * 512


class TestArchive:
    def test_digest_deterministic(self):
        a = LayerArchive.from_tree(make_tree())
        b = LayerArchive.from_tree(make_tree())
        assert a.digest == b.digest
        assert a == b

    def test_digest_changes_with_content(self):
        t = make_tree()
        t.write_file("/etc/conf", b"key=other")
        assert LayerArchive.from_tree(t) != LayerArchive.from_tree(make_tree())

    def test_digest_changes_with_mode(self):
        t = make_tree()
        conf = t.stat("/etc/conf")
        conf.meta = conf.meta.with_mode(0o600)
        assert LayerArchive.from_tree(t) != LayerArchive.from_tree(make_tree())

    def test_entries_are_sorted(self):
        archive = LayerArchive.from_tree(make_tree())
        archive_paths = [entry.path for entry in archive]
        assert archive_paths == sorted(archive_paths)

    def test_sizes(self):
        archive = LayerArchive.from_tree(make_tree())
        assert archive.uncompressed_size > 0
        assert 0 < archive.compressed_size < archive.uncompressed_size
        assert archive.file_count == 2

    def test_extract_roundtrip(self):
        original = make_tree()
        extracted = LayerArchive.from_tree(original).extract()
        assert LayerArchive.from_tree(extracted) == LayerArchive.from_tree(original)
        assert extracted.read_bytes("/bin/sh") == b"shell"
        assert extracted.readlink("/bin/bash") == "sh"
        assert extracted.stat("/bin/sh").meta.mode == 0o755


class TestWhiteoutEncoding:
    def test_whiteout_becomes_wh_entry(self):
        t = make_tree()
        t.whiteout("/etc/conf")
        archive = LayerArchive.from_tree(t)
        wh_paths = [e.path for e in archive
                    if e.path.rpartition("/")[2].startswith(WHITEOUT_PREFIX)
                    and not e.path.endswith(OPAQUE_MARKER)]
        assert wh_paths == [f"/etc/{WHITEOUT_PREFIX}conf"]

    def test_opaque_dir_emits_marker(self):
        t = make_tree()
        t.set_opaque("/etc")
        archive = LayerArchive.from_tree(t)
        markers = [e.path for e in archive if e.path.endswith("/" + OPAQUE_MARKER)]
        assert markers == [f"/etc/{OPAQUE_MARKER}"]

    def test_apply_whiteout_deletes(self):
        base = make_tree()
        diff = FileSystemTree()
        diff.mkdir("/etc")
        diff.whiteout("/etc/conf")
        LayerArchive.from_tree(diff).apply_to(base)
        assert not base.exists("/etc/conf")

    def test_apply_opaque_clears_directory(self):
        base = make_tree()
        diff = FileSystemTree()
        diff.mkdir("/etc")
        diff.set_opaque("/etc")
        diff.write_file("/etc/only", b"survivor")
        LayerArchive.from_tree(diff).apply_to(base)
        assert base.listdir("/etc") == ["only"]


class TestApply:
    def test_apply_overwrites_files(self):
        base = make_tree()
        diff = FileSystemTree()
        diff.mkdir("/etc")
        diff.write_file("/etc/conf", b"v2")
        LayerArchive.from_tree(diff).apply_to(base)
        assert base.read_bytes("/etc/conf") == b"v2"

    def test_apply_replaces_file_with_dir(self):
        base = make_tree()
        diff = FileSystemTree()
        diff.mkdir("/etc/conf", parents=True)
        diff.write_file("/etc/conf/sub", b"inner")
        LayerArchive.from_tree(diff).apply_to(base)
        assert base.is_dir("/etc/conf")
        assert base.read_bytes("/etc/conf/sub") == b"inner"

    def test_apply_replaces_dir_with_file(self):
        base = make_tree()
        diff = FileSystemTree()
        diff.write_file("/bin", b"now a file", parents=False)
        # Direct construction: a diff whose /bin is a file.
        LayerArchive.from_tree(diff).apply_to(base)
        assert base.is_file("/bin")

    def test_apply_replaces_symlink(self):
        base = make_tree()
        diff = FileSystemTree()
        diff.mkdir("/bin")
        diff.symlink("/bin/bash", "/bin/sh")
        LayerArchive.from_tree(diff).apply_to(base)
        assert base.readlink("/bin/bash") == "/bin/sh"


class TestExtractDiff:
    def test_preserves_whiteouts_as_inodes(self):
        t = FileSystemTree()
        t.mkdir("/etc")
        t.write_file("/etc/a", b"a")
        t.whiteout("/etc/b")
        diff = LayerArchive.from_tree(t).extract_diff()
        nodes = dict(diff.walk("/", include_whiteouts=True))
        assert nodes["/etc/b"].is_whiteout
        assert nodes["/etc/a"].is_file

    def test_preserves_opaque_flag(self):
        t = FileSystemTree()
        t.mkdir("/etc")
        t.set_opaque("/etc")
        diff = LayerArchive.from_tree(t).extract_diff()
        assert diff.stat("/etc").opaque

    def test_wire_roundtrip_preserves_digest(self):
        t = make_tree()
        t.whiteout("/etc/conf")
        archive = LayerArchive.from_tree(t)
        rebuilt = LayerArchive.from_tree(archive.extract_diff())
        assert rebuilt == archive


# -- the columns against the records ------------------------------------------

#: Any member: a directory, a stub file, a symlink, a whiteout or opaque
#: marker at most three levels down (``/a`` included), or a file whose
#: size pads to a different number of tar blocks.
_MEMBERS = st.one_of(
    tar_entries(),
    st.builds(
        lambda name, size: TarEntry(
            f"/{name}", FileKind.FILE, 0o644, 0, 0, blob=Blob.synthetic(name, size)
        ),
        st.sampled_from(["a", "b", "z"]),
        st.integers(0, 1600),
    ),
)


@given(st.lists(_MEMBERS, max_size=12))  # duplicate paths are kept
def test_columns_answer_as_the_records_do(members):
    expected = sorted(members, key=lambda entry: entry.path)  # stable
    blobs = [entry.blob for entry in expected if entry.blob is not None]
    # A 512-byte header per member, content padded to 512, two end blocks.
    uncompressed = 512 * (len(expected) + 2) + sum(
        (blob.size + 511) // 512 * 512 for blob in blobs
    )
    header_bytes = uncompressed - sum(blob.size for blob in blobs)
    compressed = round(header_bytes * 0.05) + sum(map(blob_compressed_size, blobs))
    reference = SimpleNamespace(entries=expected)
    applied = outcome_and_listing(
        lambda: apply_reference(reference, FileSystemTree())
    )
    diffed = outcome_and_listing(lambda: extract_diff_reference(reference))
    for archive in (
        LayerArchive(members),
        LayerArchive.from_rows([as_row(entry) for entry in members]),
    ):
        assert list(archive.entries) == expected and archive.entries == expected
        assert list(archive) == expected
        assert archive.digest == sha256_tokens(
            token for entry in expected
            for token in _digest_tokens(*([field] for field in _row_of(entry)))
        )
        assert archive.uncompressed_size == uncompressed
        assert archive.compressed_size == max(64, compressed)
        assert archive.file_count == sum(
            entry.kind is FileKind.FILE for entry in expected
        )
        assert len(archive) == len(archive.entries) == len(expected)
        assert outcome_and_listing(
            lambda: archive.apply_to(FileSystemTree())
        ) == applied
        assert outcome_and_listing(archive.extract_diff) == diffed
