"""Union mount semantics: shadowing, whiteouts, copy-up, opaque dirs."""

import pytest

from repro.common.errors import (
    FileExistsVfsError,
    IsADirectoryVfsError,
    NotFoundError,
    VfsError,
)
from repro.vfs.overlay import OverlayMount
from repro.vfs.tree import FileSystemTree


def lower_tree():
    t = FileSystemTree()
    t.mkdir("/bin")
    t.write_file("/bin/sh", b"lower-shell")
    t.mkdir("/etc/app", parents=True)
    t.write_file("/etc/app/conf", b"lower-conf")
    t.symlink("/bin/bash", "sh")
    return t.freeze()


@pytest.fixture
def mount():
    return OverlayMount([lower_tree()])


class TestLookup:
    def test_reads_from_lower(self, mount):
        assert mount.read_bytes("/bin/sh") == b"lower-shell"

    def test_upper_shadows_lower(self, mount):
        mount.write_file("/bin/sh", b"upper-shell")
        assert mount.read_bytes("/bin/sh") == b"upper-shell"
        # The lower tree is untouched.
        assert mount.lowers[0].read_bytes("/bin/sh") == b"lower-shell"

    def test_missing_raises(self, mount):
        with pytest.raises(NotFoundError):
            mount.read_blob("/missing")

    def test_symlink_resolution_in_merged_namespace(self, mount):
        # bash -> sh resolves to the UPPER sh after shadowing.
        mount.write_file("/bin/sh", b"upper-shell")
        assert mount.read_bytes("/bin/bash") == b"upper-shell"

    def test_listdir_merges(self, mount):
        mount.write_file("/bin/new", b"n")
        assert mount.listdir("/bin") == ["bash", "new", "sh"]

    def test_stat_reports_kind(self, mount):
        assert mount.stat("/bin").is_dir
        assert mount.stat("/bin/bash", follow_symlinks=False).is_symlink

    def test_multiple_lowers_priority(self):
        bottom = FileSystemTree()
        bottom.write_file("/f", b"bottom")
        bottom.write_file("/only-bottom", b"ob")
        top = FileSystemTree()
        top.write_file("/f", b"top-lower")
        mount = OverlayMount([top.freeze(), bottom.freeze()])
        assert mount.read_bytes("/f") == b"top-lower"
        assert mount.read_bytes("/only-bottom") == b"ob"

    def test_nondir_shadows_lower_dir(self):
        bottom = FileSystemTree()
        bottom.mkdir("/x")
        bottom.write_file("/x/child", b"c")
        top = FileSystemTree()
        top.write_file("/x", b"a file now")
        mount = OverlayMount([top.freeze(), bottom.freeze()])
        assert mount.stat("/x").is_file
        assert not mount.exists("/x/child")


class TestWrites:
    def test_write_lands_in_upper(self, mount):
        mount.write_file("/etc/app/new", b"data")
        assert mount.upper.read_bytes("/etc/app/new") == b"data"

    def test_write_creates_upper_dirs_with_merged_metadata(self, mount):
        mount.write_file("/etc/app/new", b"data")
        assert mount.upper.is_dir("/etc/app")

    def test_write_parents(self, mount):
        mount.write_file("/var/log/app.log", b"x", parents=True)
        assert mount.read_bytes("/var/log/app.log") == b"x"

    def test_write_over_dir_fails(self, mount):
        with pytest.raises(IsADirectoryVfsError):
            mount.write_file("/bin", b"no")

    def test_mkdir(self, mount):
        mount.mkdir("/srv")
        assert mount.is_dir("/srv")

    def test_mkdir_exist_ok_on_lower_dir(self, mount):
        mount.mkdir("/bin", exist_ok=True)
        with pytest.raises(FileExistsVfsError):
            mount.mkdir("/bin")

    def test_symlink(self, mount):
        mount.symlink("/etc/app/link", "conf")
        assert mount.read_bytes("/etc/app/link") == b"lower-conf"

    def test_explicit_copy_up(self, mount):
        mount.copy_up("/bin/sh")
        assert mount.upper.read_bytes("/bin/sh") == b"lower-shell"
        assert mount.stats.copy_ups == 1
        # Second copy-up is a no-op.
        mount.copy_up("/bin/sh")
        assert mount.stats.copy_ups == 1


class TestRemoval:
    def test_remove_lower_file_places_whiteout(self, mount):
        mount.remove("/bin/sh")
        assert not mount.exists("/bin/sh")
        assert mount.upper.stat(
            "/bin/sh", follow_symlinks=False
        ).is_whiteout if mount.upper.exists("/bin/sh", follow_symlinks=False) else True
        assert mount.stats.whiteouts_created == 1

    def test_removed_name_absent_from_listing(self, mount):
        mount.remove("/bin/sh")
        assert "sh" not in mount.listdir("/bin")

    def test_remove_upper_only_file_leaves_no_whiteout(self, mount):
        mount.write_file("/bin/tmp", b"t")
        mount.remove("/bin/tmp")
        assert not mount.exists("/bin/tmp")
        assert mount.stats.whiteouts_created == 0

    def test_remove_shadowing_file_reveals_nothing(self, mount):
        mount.write_file("/bin/sh", b"upper")
        mount.remove("/bin/sh")
        # Both the upper file and the lower original must be hidden.
        assert not mount.exists("/bin/sh")

    def test_recreate_after_remove(self, mount):
        mount.remove("/bin/sh")
        mount.write_file("/bin/sh", b"reborn")
        assert mount.read_bytes("/bin/sh") == b"reborn"

    def test_remove_dir_recursive(self, mount):
        mount.remove("/etc/app", recursive=True)
        assert not mount.exists("/etc/app")
        assert not mount.exists("/etc/app/conf")

    def test_remove_nonempty_dir_without_recursive_fails(self, mount):
        with pytest.raises(VfsError):
            mount.remove("/etc/app")


class TestOpaque:
    def test_a_directory_made_over_a_whiteout_is_opaque(self, mount):
        mount.remove("/etc/app", recursive=True)
        mount.mkdir("/etc/app")
        assert mount.listdir("/etc/app") == []
        assert mount.upper.stat("/etc/app").opaque

    def test_opaque_upper_dir_hides_lower_contents(self, mount):
        mount.mkdir("/etc/app", exist_ok=True)
        mount.upper.set_opaque("/etc/app")
        assert mount.listdir("/etc/app") == []
        mount.write_file("/etc/app/fresh", b"f")
        assert mount.listdir("/etc/app") == ["fresh"]


class TestStats:
    def test_read_stats(self, mount):
        mount.read_blob("/bin/sh")
        mount.read_blob("/bin/sh")
        assert mount.stats.reads == 2
        assert mount.stats.bytes_read == 2 * len(b"lower-shell")

    def test_inodes_touched_counts_distinct(self, mount):
        mount.read_blob("/bin/sh")
        mount.read_blob("/bin/sh")
        mount.read_blob("/etc/app/conf")
        # sh, conf plus the directory inodes touched on the way.
        assert mount.stats.inodes_touched >= 2


class TestFrozenUpperRejected:
    def test_frozen_upper_rejected(self):
        upper = FileSystemTree().freeze()
        with pytest.raises(VfsError):
            OverlayMount([lower_tree()], upper)
