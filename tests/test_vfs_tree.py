"""FileSystemTree: POSIX-ish operations, hard links, symlinks, whiteouts."""

import pytest

from repro.blob import Blob
from repro.common.errors import (
    FileExistsVfsError,
    IsADirectoryVfsError,
    NotADirectoryVfsError,
    NotFoundError,
    ReadOnlyVfsError,
    SymlinkLoopError,
    VfsError,
)
from repro.vfs.inode import FileKind, Metadata
from repro.vfs.tree import FileSystemTree


@pytest.fixture
def tree():
    t = FileSystemTree()
    t.mkdir("/usr/bin", parents=True)
    t.mkdir("/etc")
    t.write_file("/usr/bin/sh", b"#!shell")
    t.write_file("/etc/hosts", "127.0.0.1 localhost")
    return t


class TestCreation:
    def test_mkdir_and_listdir(self, tree):
        assert tree.listdir("/") == ["etc", "usr"]
        assert tree.listdir("/usr") == ["bin"]

    def test_mkdir_requires_parents(self):
        t = FileSystemTree()
        with pytest.raises(NotFoundError):
            t.mkdir("/a/b/c")

    def test_mkdir_parents(self):
        t = FileSystemTree()
        t.mkdir("/a/b/c", parents=True)
        assert t.is_dir("/a/b/c")

    def test_mkdir_exist_ok(self, tree):
        tree.mkdir("/usr", exist_ok=True)
        with pytest.raises(FileExistsVfsError):
            tree.mkdir("/usr")

    def test_mkdir_over_file_fails(self, tree):
        with pytest.raises(FileExistsVfsError):
            tree.mkdir("/etc/hosts", exist_ok=True)

    def test_write_file_accepts_str_bytes_blob(self, tree):
        tree.write_file("/etc/a", "text")
        tree.write_file("/etc/b", b"bytes")
        tree.write_file("/etc/c", Blob.from_bytes(b"blob"))
        assert tree.read_bytes("/etc/a") == b"text"
        assert tree.read_bytes("/etc/c") == b"blob"

    def test_write_file_rejects_other_types(self, tree):
        with pytest.raises(TypeError):
            tree.write_file("/etc/x", 42)

    def test_write_file_with_parents(self):
        t = FileSystemTree()
        t.write_file("/deep/path/file", b"x", parents=True)
        assert t.read_bytes("/deep/path/file") == b"x"

    def test_write_over_directory_fails(self, tree):
        with pytest.raises(IsADirectoryVfsError):
            tree.write_file("/usr/bin", b"nope")

    def test_overwrite_replaces_content(self, tree):
        tree.write_file("/etc/hosts", b"new")
        assert tree.read_bytes("/etc/hosts") == b"new"

    def test_metadata_applied(self, tree):
        inode = tree.write_file("/usr/bin/tool", b"x", meta=Metadata(mode=0o755))
        assert inode.meta.mode == 0o755


class TestQueries:
    def test_exists(self, tree):
        assert tree.exists("/etc/hosts")
        assert not tree.exists("/etc/missing")

    def test_stat_raises_on_missing(self, tree):
        with pytest.raises(NotFoundError):
            tree.stat("/nope")

    def test_is_file_is_dir(self, tree):
        assert tree.is_file("/etc/hosts")
        assert not tree.is_dir("/etc/hosts")
        assert tree.is_dir("/usr")

    def test_read_blob_of_dir_fails(self, tree):
        with pytest.raises(IsADirectoryVfsError):
            tree.read_blob("/usr")

    def test_listdir_of_file_fails(self, tree):
        with pytest.raises(NotADirectoryVfsError):
            tree.listdir("/etc/hosts")

    def test_lookup_through_file_component_fails(self, tree):
        with pytest.raises(NotADirectoryVfsError):
            tree.stat("/etc/hosts/sub")

    def test_walk_is_sorted_and_complete(self, tree):
        walked = [path for path, _ in tree.walk("/")]
        assert walked == sorted(walked)
        assert "/usr/bin/sh" in walked
        assert "/etc" in walked

    def test_iter_files(self, tree):
        files = dict(tree.iter_files("/"))
        assert set(files) == {"/usr/bin/sh", "/etc/hosts"}

    def test_count_nodes(self, tree):
        # /usr /usr/bin /usr/bin/sh /etc /etc/hosts
        assert tree.count_nodes() == 5


class TestSymlinks:
    def test_readlink(self, tree):
        tree.symlink("/usr/bin/shell", "sh")
        assert tree.readlink("/usr/bin/shell") == "sh"

    def test_follow_relative(self, tree):
        tree.symlink("/usr/bin/shell", "sh")
        assert tree.read_bytes("/usr/bin/shell") == b"#!shell"

    def test_follow_absolute(self, tree):
        tree.symlink("/etc/shell", "/usr/bin/sh")
        assert tree.read_bytes("/etc/shell") == b"#!shell"

    def test_follow_through_intermediate_symlink(self, tree):
        tree.symlink("/binlink", "/usr/bin")
        assert tree.read_bytes("/binlink/sh") == b"#!shell"

    def test_nofollow_stat(self, tree):
        tree.symlink("/etc/shell", "/usr/bin/sh")
        assert tree.stat("/etc/shell", follow_symlinks=False).is_symlink

    def test_loop_detection(self, tree):
        tree.symlink("/etc/a", "/etc/b")
        tree.symlink("/etc/b", "/etc/a")
        with pytest.raises(SymlinkLoopError):
            tree.read_bytes("/etc/a")

    def test_dangling_symlink_exists_nofollow_only(self, tree):
        tree.symlink("/etc/gone", "/nothing/here")
        assert tree.exists("/etc/gone", follow_symlinks=False)
        assert not tree.exists("/etc/gone")

    def test_mkdir_follows_an_ancestor_symlink_like_every_mutator(self, tree):
        tree.symlink("/link", "/usr")
        tree.mkdir("/link/lib")
        tree.write_file("/link/share/doc/x", b"y", parents=True)
        assert tree.is_dir("/usr/lib") and tree.read_bytes("/usr/share/doc/x") == b"y"
        with pytest.raises(FileExistsVfsError):
            tree.mkdir("/link", exist_ok=True)  # the final component is not followed
        tree.symlink("/etc/a", "/etc/b")
        tree.symlink("/etc/b", "/etc/a")
        with pytest.raises(SymlinkLoopError):
            tree.mkdir("/etc/a/d", parents=True)

    def test_readlink_on_file_fails(self, tree):
        with pytest.raises(VfsError):
            tree.readlink("/etc/hosts")

    def test_symlink_over_existing_fails(self, tree):
        with pytest.raises(FileExistsVfsError):
            tree.symlink("/etc/hosts", "elsewhere")


class TestHardLinks:
    def test_hardlink_shares_inode(self, tree):
        tree.hardlink("/usr/bin/sh2", "/usr/bin/sh")
        assert tree.stat("/usr/bin/sh2").ino == tree.stat("/usr/bin/sh").ino
        assert tree.stat("/usr/bin/sh").nlink == 2

    def test_hardlink_to_directory_fails(self, tree):
        with pytest.raises(IsADirectoryVfsError):
            tree.hardlink("/usrlink", "/usr")

    def test_remove_decrements_nlink(self, tree):
        tree.hardlink("/usr/bin/sh2", "/usr/bin/sh")
        tree.remove("/usr/bin/sh")
        assert tree.stat("/usr/bin/sh2").nlink == 1
        assert tree.read_bytes("/usr/bin/sh2") == b"#!shell"

    def test_hardlink_over_existing_fails(self, tree):
        with pytest.raises(FileExistsVfsError):
            tree.hardlink("/etc/hosts", "/usr/bin/sh")
        assert tree.stat("/usr/bin/sh").nlink == 1


class TestRemoval:
    def test_remove_file(self, tree):
        tree.remove("/etc/hosts")
        assert not tree.exists("/etc/hosts")

    def test_remove_missing_fails(self, tree):
        with pytest.raises(NotFoundError):
            tree.remove("/etc/missing")

    def test_remove_nonempty_dir_needs_recursive(self, tree):
        with pytest.raises(VfsError):
            tree.remove("/usr")
        tree.remove("/usr", recursive=True)
        assert not tree.exists("/usr")

    def test_remove_empty_dir(self, tree):
        tree.mkdir("/empty")
        tree.remove("/empty")
        assert not tree.exists("/empty")


class TestWhiteouts:
    def test_whiteout_hides_entry(self, tree):
        tree.whiteout("/etc/hosts")
        assert not tree.exists("/etc/hosts")
        assert "hosts" not in tree.listdir("/etc")

    def test_whiteout_visible_in_walk_when_asked(self, tree):
        tree.whiteout("/etc/hosts")
        walked = {
            path: node
            for path, node in tree.walk("/", include_whiteouts=True)
        }
        assert walked["/etc/hosts"].is_whiteout

    def test_whiteout_over_nothing_is_allowed(self, tree):
        tree.whiteout("/etc/ghost")
        assert not tree.exists("/etc/ghost")


class TestFreezeAndClone:
    def test_frozen_tree_rejects_writes(self, tree):
        tree.freeze()
        with pytest.raises(ReadOnlyVfsError):
            tree.write_file("/etc/x", b"y")
        with pytest.raises(ReadOnlyVfsError):
            tree.mkdir("/new")
        with pytest.raises(ReadOnlyVfsError):
            tree.remove("/etc/hosts")

    def test_clone_is_writable_and_independent(self, tree):
        tree.freeze()
        copy = tree.clone()
        copy.write_file("/etc/new", b"z")
        assert copy.exists("/etc/new")
        assert not tree.exists("/etc/new")

    def test_clone_preserves_content_and_structure(self, tree):
        copy = tree.clone()
        assert [p for p, _ in copy.walk("/")] == [p for p, _ in tree.walk("/")]
        assert copy.read_bytes("/usr/bin/sh") == b"#!shell"

    @pytest.mark.parametrize("frozen", [False, True])
    def test_clone_keeps_hard_links_linked(self, frozen):
        t = FileSystemTree()
        t.write_file("/a", b"x" * 100)
        t.hardlink("/b", "/a")
        copy = (t.freeze() if frozen else t).clone()
        assert copy.stat("/a") is copy.stat("/b")
        assert copy.stat("/a").nlink == 2
        assert copy.total_file_bytes() == 100

    def test_total_file_bytes_counts_hardlinks_once(self, tree):
        before = tree.total_file_bytes()
        tree.hardlink("/usr/bin/sh2", "/usr/bin/sh")
        assert tree.total_file_bytes() == before
