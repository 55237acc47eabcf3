"""Copy-on-write trees: a clone of a frozen tree shares, and never leaks.

Three angles on :meth:`FileSystemTree.clone`:

* a model check — the same random mutations applied to a clone of a
  frozen tree and to a naive rebuild of that tree must leave identical
  listings, and must leave the frozen source untouched;
* allocation counted in inode numbers, not seconds — a clone costs what
  it writes to, not what its source contains;
* the template caches behind ``LayerArchive.extract()`` and
  ``GearIndex.from_image()`` cannot be poisoned through their clones.
"""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.bench.deploy import deploy_with_gear
from repro.blob import Blob
from repro.common.errors import NotFoundError, ReadOnlyVfsError, VfsError
from repro.gear.index import STUB_XATTR, GearIndex
from repro.vfs import inode as inode_module
from repro.vfs.inode import FileKind, Inode, Metadata
from repro.vfs.tar import LayerArchive
from repro.vfs.tree import FileSystemTree

# -- the model check --------------------------------------------------------

_NAMES = st.sampled_from(["a", "b", "c", "l"])
_CONTENT = st.binary(min_size=0, max_size=8)
_META = st.one_of(
    st.none(),
    st.builds(
        Metadata,
        mode=st.sampled_from([0o600, 0o644, 0o755]),
        uid=st.integers(0, 2),
        gid=st.integers(0, 2),
        xattrs=st.dictionaries(st.sampled_from(["k", "user.x"]), st.just("v"), max_size=1),
    ),
)


def ops_on(tree: FileSystemTree):
    """One mutation — the method's name and its arguments — aimed at
    ``tree``: mostly at paths it has, or one name below them (so paths
    run through symlinked parents as soon as a symlink exists), rarely
    somewhere random.
    """
    known = ["/"] + [path for path, _ in tree.walk("/", include_whiteouts=True)]
    below = st.builds(
        lambda parent, name: parent.rstrip("/") + "/" + name,
        st.sampled_from(known),
        _NAMES,
    )
    anywhere = st.builds(
        lambda parts: "/" + "/".join(parts), st.lists(_NAMES, max_size=4)
    )
    paths = st.one_of(st.sampled_from(known), below, below, anywhere)
    targets = st.one_of(paths, st.sampled_from(["a", "../a", "../b/c", ".", "..", "l"]))
    return st.one_of(
        st.tuples(st.just("mkdir"), paths, st.booleans(), st.booleans(), _META),
        st.tuples(st.just("write_file"), paths, _CONTENT, _META, st.booleans()),
        st.tuples(st.just("symlink"), paths, targets, _META),
        st.tuples(st.just("hardlink"), paths, paths),
        st.tuples(st.just("remove"), paths, st.booleans()),
        st.tuples(st.just("whiteout"), paths),
        st.tuples(st.just("set_opaque"), paths),
    )


def outcome(action) -> str:
    """How ``action`` ended: ``"ok"`` or the error's class name, so two
    trees can be held to the same outcome."""
    try:
        action()
    except (VfsError, NotFoundError) as error:
        return type(error).__name__
    return "ok"


def apply_op(tree: FileSystemTree, op) -> str:
    """Apply one mutation drawn from :func:`ops_on`; returns its outcome."""
    kind, *args = op

    def act():
        if kind == "mkdir":
            path, parents, exist_ok, meta = args
            tree.mkdir(path, parents=parents, exist_ok=exist_ok, meta=meta)
        elif kind == "write_file":
            path, content, meta, parents = args
            tree.write_file(path, content, meta=meta, parents=parents)
        elif kind == "symlink":
            path, target, meta = args
            tree.symlink(path, target, meta=meta)
        elif kind == "remove":
            path, recursive = args
            tree.remove(path, recursive=recursive)
        else:  # hardlink, whiteout, set_opaque: positional
            getattr(tree, kind)(*args)

    return outcome(act)


def listing(tree: FileSystemTree, *, with_ino: bool = False):
    """Everything observable about a tree, hard-link structure included."""
    first_path_of = {}
    rows = [("/", tree.root.opaque, _meta_row(tree.root))]
    for path, node in tree.walk("/", include_whiteouts=True):
        rows.append(
            (
                path,
                node.kind,
                _meta_row(node),
                node.blob.fingerprint if node.blob is not None else None,
                node.symlink_target,
                node.opaque,
                node.nlink,
                first_path_of.setdefault(node.ino, path),
                node.ino if with_ino else None,
            )
        )
    return rows, tree.total_file_bytes()


def _meta_row(node: Inode):
    meta = node.meta
    return (meta.mode, meta.uid, meta.gid, sorted(meta.xattrs.items()))


def rebuild(source: FileSystemTree) -> FileSystemTree:
    """The naive copy: re-apply the source's walk into a fresh tree."""
    tree = FileSystemTree()
    tree.root.meta = source.root.meta
    tree.root.opaque = source.root.opaque
    first_path_of = {}
    for path, node in source.walk("/", include_whiteouts=True):
        first = first_path_of.setdefault(node.ino, path)
        if first != path:  # only a regular file has a second entry
            tree.hardlink(path, first)
        elif node.is_dir:
            tree.mkdir(path, meta=node.meta)
            if node.opaque:
                tree.set_opaque(path)
        elif node.is_symlink:
            tree.symlink(path, node.symlink_target, meta=node.meta)
        elif node.is_whiteout:
            tree.whiteout(path)
        else:
            tree.write_file(path, node.blob, meta=node.meta)
    return tree


class SharedCloneMachine(RuleBasedStateMachine):
    """A clone of a frozen tree against a naive rebuild of the same tree."""

    sibling = None

    @initialize(data=st.data(), steps=st.integers(0, 25))
    def build(self, data, steps):
        source = FileSystemTree()
        for _ in range(steps):
            apply_op(source, data.draw(ops_on(source)))
        self.start_from(source)

    def start_from(self, source):
        self.source = source.freeze()
        self.frozen_listing = listing(self.source, with_ino=True)
        self.clone = self.source.clone()
        # A second clone that owns just its root: a copy that still holds
        # the template's children and the template's metadata value.
        self.sibling = self.source.clone()
        self.sibling.mkdir("/", exist_ok=True)
        self.reference = rebuild(self.source)

    @rule(data=st.data())
    def mutate(self, data):
        self.apply(data.draw(ops_on(self.reference)))

    def apply(self, op):
        assert apply_op(self.clone, op) == apply_op(self.reference, op), op

    @rule(data=st.data(), name=_NAMES, content=_CONTENT, parents=st.booleans())
    def write_through_a_symlinked_parent(self, data, name, content, parents):
        """Every mutator's walk follows an ancestor symlink, ``mkdir``'s
        and ``parents=True``'s included, owning what the link leads to."""
        links = [p for p, node in self.reference.walk("/") if node.is_symlink]
        if links:
            link = data.draw(st.sampled_from(links))
            self.apply(("mkdir", f"{link}/{name}", parents, True, None))
            self.apply(("write_file", f"{link}/{name}/sub/f", content, None, parents))

    @rule(
        data=st.data(),
        mode=st.sampled_from([0o600, 0o700, 0o755]),
        attr=st.sampled_from([None, "k", "user.x"]),
    )
    def change_directory_metadata(self, data, mode, attr):
        """chmod / setxattr on a directory: the node a mutator returns is
        the tree's own, and its metadata is replaced, never written to —
        the value it held is still the template's and the sibling's."""
        dirs = ["/"] + [p for p, node in self.reference.walk("/") if node.is_dir]
        path = data.draw(st.sampled_from(dirs))
        for tree in (self.clone, self.reference):
            node = tree.mkdir(path, exist_ok=True)
            meta = node.meta.with_mode(mode)
            node.meta = meta if attr is None else meta.with_xattr(attr, "w")

    @rule()
    def clone_again(self):
        """Freeze the clone and carry on in a clone of *that*: sharing
        must compose over generations."""
        self.clone = self.clone.freeze().clone()

    @invariant()
    def clone_matches_reference(self):
        assert listing(self.clone) == listing(self.reference)

    @invariant()
    def source_is_untouched(self):
        assert listing(self.source, with_ino=True) == self.frozen_listing

    def teardown(self):
        """Whatever one clone did, its sibling still reads as the template."""
        if self.sibling is not None:
            assert listing(self.sibling) == listing(self.source)


# The example count is the Hypothesis profile's (tests/conftest.py):
# about 3 s of the tier-1 budget, 150 examples under ``wide``.
TestSharedCloneMachine = SharedCloneMachine.TestCase
TestSharedCloneMachine.settings = settings(stateful_step_count=20, deadline=None)


class ColumnLowerCloneMachine(SharedCloneMachine):
    """The same machine over a Gear index's lower: the frozen tree whose
    directories mint their entries from the archive's columns
    (``LayerArchive.index_template``), shared by every clone."""

    def start_from(self, source):
        index = GearIndex.from_tree("m.gear", "v1", source)
        super().start_from(index.tree)
        # The reference is the archive unpacked into a plain tree, each
        # file marked a stub, so the lower answers against a tree it did
        # not mint.
        unpacked = index.archive.apply_to(FileSystemTree())
        for _, node in unpacked.walk("/"):
            if node.is_file:
                node.meta = node.meta.with_xattr(STUB_XATTR, "1")
        self.reference = rebuild(unpacked)


# A quarter of the profile's examples: the column lower adds under 1 s.
TestColumnLowerCloneMachine = ColumnLowerCloneMachine.TestCase
TestColumnLowerCloneMachine.settings = settings(
    settings.default, max_examples=max(1, settings.default.max_examples // 4),
    stateful_step_count=20, deadline=None,
)


def drive(source_ops, ops):
    """Run a pinned sequence through the machine's own checks."""
    source = FileSystemTree()
    for op in source_ops:
        assert apply_op(source, op) == "ok", op
    machine = SharedCloneMachine()
    machine.start_from(source)
    for op in ops:
        machine.apply(op)
        machine.clone_matches_reference()
        machine.source_is_untouched()
    machine.teardown()


class TestPinnedSequences:
    """Sequences the machine must keep passing, spelled out."""

    LINKED = [
        ("mkdir", "/a", False, False, None),
        ("write_file", "/a/b", b"x" * 8, None, False),
        ("hardlink", "/c", "/a/b"),
    ]

    def test_dropping_one_link_of_a_shared_pair_recounts_the_other(self):
        drive(self.LINKED, [("remove", "/c", False), ("hardlink", "/m", "/a/b")])

    def test_removing_a_shared_directory_unlinks_what_is_beneath_it(self):
        drive(self.LINKED, [("remove", "/a", True), ("hardlink", "/m", "/c")])

    def test_hardlink_onto_a_shared_leaf_through_a_symlinked_parent(self):
        drive(
            self.LINKED + [("symlink", "/l", "a", None)],
            [("hardlink", "/l/m", "/l/b"), ("write_file", "/a/b", b"", None, False)],
        )

    def test_linking_a_shared_inode_links_a_copy(self):
        drive(self.LINKED, [("hardlink", "/m", "/c"), ("whiteout", "/a")])

    def test_relinking_a_shared_inode_over_itself(self):
        drive(self.LINKED, [("hardlink", "/c", "/c")])
        drive(self.LINKED[:2], [("hardlink", "/a/b", "/a/b")])

    def test_opaque_on_a_shared_directory_and_on_the_root(self):
        drive(self.LINKED, [("set_opaque", "/a"), ("set_opaque", "/")])


# -- allocation is O(touched) -------------------------------------------------


def inodes_allocated(action) -> int:
    """Inode numbers handed out while ``action`` runs."""
    before = next(inode_module._inode_numbers)
    action()
    return next(inode_module._inode_numbers) - before - 1


def wide_tree(depth: int = 6) -> FileSystemTree:
    """About 2 200 nodes: three directories per level, five files in each."""
    tree = FileSystemTree()

    def fill(path: str, level: int) -> None:
        for name in ("f0", "f1", "f2", "f3", "f4"):
            tree.write_file(f"{path}/{name}", b"data")
        if level < depth:
            for name in ("d0", "d1", "d2"):
                tree.mkdir(f"{path}/{name}")
                fill(f"{path}/{name}", level + 1)

    fill("", 1)
    return tree


class TestAllocation:
    def test_clone_of_a_frozen_tree_allocates_nothing(self):
        tree = wide_tree().freeze()
        assert sum(1 for _ in tree.walk()) >= 2000
        clones = []
        assert inodes_allocated(lambda: clones.append(tree.clone())) == 0
        assert clones[0].root is tree.root

    def test_a_write_copies_only_the_directories_above_it(self):
        tree = wide_tree().freeze()
        clone = tree.clone()
        deep = "/d0/d1/d2/d0/d1"
        depth = f"{deep}/new".count("/")
        # The root and the five directories on the way, and the new file.
        first = inodes_allocated(lambda: clone.write_file(f"{deep}/new", b"x"))
        assert first == depth + 1
        # Every directory on the way is the clone's own now.
        assert inodes_allocated(lambda: clone.write_file(f"{deep}/more", b"y")) == 1
        assert inodes_allocated(lambda: clone.remove(f"{deep}/f0")) == 0
        # A sibling shares the copied ancestors: one directory, one file.
        assert inodes_allocated(
            lambda: clone.write_file("/d0/d1/d2/d0/d2/new", b"z")
        ) == 2
        assert not tree.exists(f"{deep}/new")
        assert tree.exists(f"{deep}/f0")

    def test_a_tree_that_shares_nothing_copies_nothing(self):
        tree = wide_tree()
        assert inodes_allocated(lambda: tree.write_file("/d0/d1/new", b"x")) == 1
        copy = tree.clone()  # writable source: the deep copy
        assert inodes_allocated(lambda: copy.write_file("/d0/d1/more", b"x")) == 1

    def test_a_gear_deploy_allocates_less_than_its_index_holds(
        self, published_testbed, small_corpus
    ):
        generated = small_corpus.by_series["nginx"][0]
        # The first client pays for the one-time templates.
        deploy_with_gear(published_testbed.fresh_client(), generated)
        bed = published_testbed.fresh_client()
        allocated = inodes_allocated(lambda: deploy_with_gear(bed, generated))
        index = bed.gear_driver.get_index(
            f"{generated.image.name}.gear:{generated.image.tag}"
        )
        # Before copy-on-write every deploy allocated two copies of the
        # index tree (the daemon's layer store and the level-2 index).
        assert 0 < allocated < sum(1 for _ in index.tree.walk())


# -- clones of one frozen tree are independent -----------------------------------


class TestFrozenTemplates:
    def test_extract_hands_out_independent_trees_of_a_frozen_template(self):
        source = FileSystemTree()
        source.write_file("/etc/app/conf", b"v1", parents=True)
        source.write_file("/bin/tool", b"tool", parents=True)
        archive = LayerArchive.from_tree(source)

        first = archive.extract()
        first.write_file("/etc/app/conf", b"tampered")
        first.remove("/bin", recursive=True)
        app = first.mkdir("/etc/app", exist_ok=True)
        app.meta = app.meta.with_mode(0o700)

        second = archive.extract()
        assert second.read_bytes("/etc/app/conf") == b"v1"
        assert second.read_bytes("/bin/tool") == b"tool"
        assert second.stat("/etc/app").meta.mode == 0o755
        with pytest.raises(ReadOnlyVfsError):
            archive._extract_template.write_file("/etc/app/conf", b"poison")
        archive.extract_diff()
        with pytest.raises(ReadOnlyVfsError):
            archive._diff_template.whiteout("/etc")

    def test_metadata_is_an_interned_immutable_value(self):
        meta = Metadata(mode=0o755, uid=3, xattrs={"k": "v", "j": "w"})
        for change in (
            lambda: setattr(meta, "mode", 0o600),
            lambda: setattr(meta, "xattrs", {}),
            lambda: setattr(meta, "colour", "red"),
            lambda: delattr(meta, "uid"),
        ):
            with pytest.raises(AttributeError):
                change()
        assert (meta.mode, meta.uid, meta.xattrs) == (0o755, 3, {"k": "v", "j": "w"})
        # Equal values are one object, however they were arrived at.
        assert meta is Metadata(0o755, 3, 0, 0.0, {"j": "w", "k": "v"})
        assert meta is Metadata(mode=0o700, uid=3, xattrs={"j": "w"}).with_xattr(
            "k", "v"
        ).with_mode(0o755)
        assert meta.with_mode(0o755) is meta and meta.with_xattr("k", "v") is meta
        assert Metadata() is Metadata(mode=0o644) is Metadata(xattrs={})
        assert Metadata() is not Metadata(mode=0o755)
        # A caller's dict is copied, not kept.
        attrs = {"k": "v"}
        tagged = Metadata(xattrs=attrs)
        attrs["k"] = "changed"
        assert tagged.xattrs == {"k": "v"} and tagged is Metadata(xattrs={"k": "v"})

    def test_attribute_less_inodes_share_one_unwritable_xattrs_mapping(self):
        source = FileSystemTree()
        source.write_file("/etc/plain", b"p", parents=True)
        source.write_file("/etc/tagged", b"t", meta=Metadata(xattrs={"k": "v"}))
        frozen = source.freeze()
        clone = frozen.clone()
        plain, tagged = frozen.stat("/etc/plain"), frozen.stat("/etc/tagged")

        # A directory copied on write keeps sharing the template's value
        # and with it the empty mapping; neither can be written through.
        clone.write_file("/etc/new", b"n")
        copied = clone.stat("/etc")
        assert copied is not frozen.stat("/etc")
        assert copied.meta is frozen.stat("/etc").meta
        assert copied.meta.xattrs is plain.meta.xattrs is Metadata().xattrs
        with pytest.raises(TypeError):
            copied.meta.xattrs["k"] = "v"
        with pytest.raises(TypeError):
            tagged.meta.xattrs["k"] = "changed"

        # An attribute is set by giving the inode a new value: whoever
        # holds the old one, the template included, keeps it.
        copied.meta = copied.meta.with_xattr("k", "v")
        assert copied.meta.xattrs == {"k": "v"}
        assert not plain.meta.xattrs and not frozen.stat("/etc").meta.xattrs
        mine = tagged.meta.with_xattr("k", "changed")
        assert mine.xattrs == {"k": "changed"}
        assert tagged.meta.xattrs == {"k": "v"}

    def test_materialising_one_index_leaves_its_sibling_and_template_stubs(
        self, published_testbed, small_corpus
    ):
        image = small_corpus.by_series["nginx"][0].image
        daemon = published_testbed.fresh_client().daemon
        daemon.pull(f"{image.name}.gear:{image.tag}")
        index_image = daemon.get_image(f"{image.name}.gear:{image.tag}")
        live = GearIndex.from_image(index_image)
        sibling = GearIndex.from_image(index_image)
        template, _ = index_image.layers[0].archive.index_template

        for path, entry in live.entries.items():
            pooled = Inode(FileKind.FILE, blob=Blob.from_bytes(b"real"))
            live.link(path, pooled)
            assert pooled.nlink == 2
        assert set(live.links) == set(live.entries) and not sibling.links

        assert live.tree is sibling.tree is template
        for tree in (live.tree, template):
            files = list(tree.iter_files())
            assert len(files) == len(live.entries)
            for _, node in files:
                assert STUB_XATTR in node.meta.xattrs
                assert node.nlink == 1
        with pytest.raises(ReadOnlyVfsError):
            template.write_file("/poison", b"x")
