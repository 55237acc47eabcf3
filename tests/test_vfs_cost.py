"""The path layer's cost, counted in parses and walks rather than seconds.

DESIGN.md §13 ("Path layer") promises that every public operation
splits its path once and descends from the root at most once, that an
overlay lookup carries its merged directory stack down the path, and
that the bulk loaders stay in the directory they are filling.  A clock
cannot hold the code to that on a noisy box; counters can.
"""

from __future__ import annotations

import pytest

from repro.blob import Blob
from repro.gear.index import GearFileEntry, GearIndex
from repro.vfs import overlay as overlay_module
from repro.vfs import paths
from repro.vfs.inode import FileKind
from repro.vfs.overlay import OverlayMount
from repro.vfs.tar import LayerArchive
from repro.vfs.tree import FileSystemTree
from tests.test_vfs_cow import inodes_allocated, wide_tree

ABOVE = "/d0/d1/d2/d0"
DEEP = f"{ABOVE}/d1"  # a leaf directory of wide_tree(): its files sit at depth 6


class Counters:
    def __init__(self):
        self.splits = self.descents = self.steps = self.dirs_touched = 0

    def reset(self):
        self.__init__()


@pytest.fixture
def counted(monkeypatch):
    """Count ``paths.split`` calls, ``FileSystemTree._descend`` calls and,
    per overlay ``_step``, the directory inodes it looked into."""
    counters = Counters()
    split, descend, step = paths.split, FileSystemTree._descend, overlay_module._step

    def counting_split(path):
        counters.splits += 1
        return split(path)

    def counting_descend(self, parts, **kwargs):
        counters.descents += 1
        return descend(self, parts, **kwargs)

    def counting_step(stack, name):
        counters.steps += 1
        counters.dirs_touched += len(stack)
        return step(stack, name)

    monkeypatch.setattr(paths, "split", counting_split)
    monkeypatch.setattr(FileSystemTree, "_descend", counting_descend)
    monkeypatch.setattr(overlay_module, "_step", counting_step)
    return counters


def cost_of(counters, action):
    counters.reset()
    action()
    return counters.splits, counters.descents


class TestTreeOperations:
    def test_every_public_op_is_one_split_and_at_most_one_descent(self, counted):
        tree = wide_tree()
        tree.symlink(f"{DEEP}/link", "f0")
        ops = {
            "exists": lambda: tree.exists(f"{DEEP}/f0"),
            "stat": lambda: tree.stat(f"{DEEP}/f0"),
            "is_dir": lambda: tree.is_dir(f"{DEEP}/f0"),
            "is_file": lambda: tree.is_file(f"{DEEP}/f0"),
            "read_blob": lambda: tree.read_blob(f"{DEEP}/f0"),
            "read_bytes": lambda: tree.read_bytes(f"{DEEP}/f1"),
            "readlink": lambda: tree.readlink(f"{DEEP}/link"),
            "listdir": lambda: tree.listdir(DEEP),
            "walk": lambda: list(tree.walk(ABOVE)),
            "iter_files": lambda: list(tree.iter_files()),
            "count_nodes": lambda: tree.count_nodes(),
            "total_file_bytes": lambda: tree.total_file_bytes(),
            "mkdir": lambda: tree.mkdir(f"{DEEP}/made"),
            "mkdir exist_ok": lambda: tree.mkdir(f"{DEEP}/made", exist_ok=True),
            "write_file": lambda: tree.write_file(f"{DEEP}/new", b"x"),
            "write_file over": lambda: tree.write_file(f"{DEEP}/new", b"y"),
            "symlink": lambda: tree.symlink(f"{DEEP}/link2", "f1"),
            "whiteout": lambda: tree.whiteout(f"{DEEP}/f2"),
            "set_opaque": lambda: tree.set_opaque(f"{ABOVE}/d2"),
            "remove": lambda: tree.remove(f"{DEEP}/f4"),
            "remove recursive": lambda: tree.remove(f"{ABOVE}/d0", recursive=True),
        }
        for name, op in ops.items():
            assert cost_of(counted, op) == (1, 1), name
        assert cost_of(
            counted, lambda: tree.hardlink(f"{DEEP}/hard", f"{DEEP}/f3")
        ) == (2, 2)

    def test_write_file_with_parents_is_one_split_and_one_creating_descent(
        self, counted
    ):
        tree = wide_tree()
        new = lambda: tree.write_file("/p/q/r/s/t/u", b"x", parents=True)  # noqa: E731
        assert cost_of(counted, new) == (1, 1)
        assert tree.read_bytes("/p/q/r/s/t/u") == b"x"
        assert cost_of(counted, lambda: tree.mkdir("/m/n/o/p/q/r", parents=True)) == (1, 1)

    def test_a_clone_of_a_frozen_tree_pays_the_same(self, counted):
        clone = wide_tree().freeze().clone()
        assert cost_of(counted, lambda: clone.write_file(f"{DEEP}/new", b"x")) == (1, 1)
        assert cost_of(
            counted, lambda: clone.write_file(f"{DEEP}/a/b/c", b"x", parents=True)
        ) == (1, 1)

    def test_a_symlink_on_the_way_costs_one_more_split_not_one_more_descent(
        self, counted
    ):
        tree = wide_tree()
        tree.symlink("/jump", DEEP)
        assert cost_of(counted, lambda: tree.read_bytes("/jump/f0")) == (2, 1)


class TestOverlay:
    LAYERS = 4

    def mount(self):
        lowers = [wide_tree(depth=4) for _ in range(self.LAYERS - 1)]
        upper = FileSystemTree()
        upper.write_file("/d0/d1/d2/top", b"upper", parents=True)
        return OverlayMount(lowers, upper)

    def test_resolve_touches_at_most_depth_times_layers_directories(self, counted):
        mount = self.mount()
        path = "/d0/d1/d2/f0"
        depth = path.count("/")
        counted.reset()
        node, resolved = mount._resolve(path)
        assert node.is_file and resolved == ["d0", "d1", "d2", "f0"]
        assert counted.splits == 1
        assert counted.steps == depth
        assert counted.dirs_touched <= depth * self.LAYERS
        # The per-component recomputation this replaced: depth*(depth+1)/2 * layers.
        assert counted.dirs_touched < depth * (depth + 1) // 2 * self.LAYERS

    def test_walk_does_one_child_lookup_per_node(self, counted):
        mount = self.mount()
        counted.reset()
        nodes = list(mount.walk("/"))
        assert len(nodes) > 200
        assert counted.splits == 1
        assert counted.steps == len(nodes)
        assert counted.dirs_touched <= len(nodes) * self.LAYERS

    def test_listdir_descends_once(self, counted):
        mount = self.mount()
        assert cost_of(counted, lambda: mount.listdir("/d0/d1/d2"))[0] == 1
        assert counted.steps == 3

    def test_a_write_walks_the_merged_view_and_the_upper_once_each(self, counted):
        mount = self.mount()
        path = "/d0/d1/d2/new"
        depth = path.count("/")
        counted.reset()
        mount.write_file(path, b"x")
        # The merged walk to the parent, the entry itself, the copy-up walk.
        assert counted.steps == (depth - 1) + 1 + (depth - 1)
        assert counted.splits == 2  # the path, and "/" for the upper's root
        assert mount.upper.read_bytes(path) == b"x"


class TestBulkLoaders:
    def archive(self):
        tree = wide_tree(depth=5)
        tree.whiteout("/d0/gone")
        tree.set_opaque("/d1")
        return LayerArchive.from_tree(tree)

    def test_from_tree_splits_once_for_the_whole_walk(self, counted):
        tree = wide_tree(depth=5)
        assert cost_of(counted, lambda: LayerArchive.from_tree(tree)) == (2, 1)
        assert cost_of(counted, lambda: LayerArchive.from_tree(tree, "/d0")) == (2, 1)

    def test_apply_to_and_extract_diff_stay_in_the_directory(self, counted):
        archive = self.archive()
        entries = len(archive)
        directories = sum(1 for e in archive if e.kind is FileKind.DIRECTORY) + 1
        archive.extract()  # the template a clone comes from is built once, here
        for unpack in (
            lambda: archive.apply_to(FileSystemTree()),
            archive._extract_diff_uncached,
            lambda: archive.apply_to(archive.extract()),  # onto a CoW clone
        ):
            splits, descents = cost_of(counted, unpack)
            assert splits <= entries and descents <= entries
            # In fact a lookup per run of entries with one parent: the
            # sorted archive comes back to a directory after each of
            # its sub-directories, so about twice per directory.
            assert descents <= 2 * directories + 2 < entries // 2

    def stub_archive(self):
        tree = FileSystemTree()
        for index in range(40):
            entry = GearFileEntry(f"/usr/lib/pkg{index % 5}/f{index}", "ab" * 16, index, 0o644)
            tree.write_file(entry.path, Blob.from_text(entry.stub_content()), parents=True)
        tree.symlink("/usr/lib/pkg0/link", "f0")
        return LayerArchive.from_tree(tree)

    def test_parse_archive_creates_each_inode_once(self, counted):
        archive = self.stub_archive()
        parsed = []
        # The parse reads the stubs and unpacks nothing: its lower tree
        # has a root, and mints every other node the first time it is touched.
        allocated = inodes_allocated(
            lambda: parsed.append(GearIndex._parse_archive(archive))
        )
        tree, entries = parsed[0]
        assert len(entries) == 40 and allocated == 1
        nodes = len(archive)
        assert inodes_allocated(tree.count_nodes) == nodes
        assert inodes_allocated(tree.count_nodes) == 0
        assert tree.count_nodes() == nodes

    def test_index_from_tree_walks_once_and_mints_on_touch(self, counted):
        root = wide_tree(depth=5)
        nodes = root.count_nodes()
        built = []
        splits, descents = cost_of(
            counted, lambda: built.append(GearIndex.from_tree("n", "t", root))
        )
        assert (splits, descents) == (1, 1)  # the walk's own
        index = built[0]
        assert inodes_allocated(lambda: GearIndex.from_tree("n", "t", root)) == 1
        # A lookup mints the nodes on its path, once.
        deepest = max((path for path, _ in root.iter_files()), key=lambda p: p.count("/"))
        depth = len(paths.split(deepest))
        assert inodes_allocated(lambda: index.tree.stat(deepest)) == depth
        assert inodes_allocated(lambda: index.tree.stat(deepest)) == 0
        assert index.tree.count_nodes() == nodes
