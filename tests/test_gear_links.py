"""A Gear index links through its table: checked against a plain tree.

A node reads one frozen stub tree per index and hard-links a fetched
file into :attr:`GearIndex.links`; the Gear File Viewer shows a linked
stub as its pool file (DESIGN.md §9, §17).  The reference here is the
other representation — every index a plain tree of its own into which a
fault installs the pool inode — and a generated run of reads, stats,
walks, digests, image removals, pool drops, capacity evictions and a
crash at each :class:`CrashPoint` followed by ``recover()`` and resume
must look the same through both: what each path shows (blob, mode, the
very pool inode once linked), every pool inode's ``nlink`` (one for the
pool, one per live link), the bytes linked in, ``inodes_touched`` and the
filesystem digest, a ``uid-…`` identity included.  One deliberate
difference: a rolled-back link shows the template's own stub again,
where a re-written stub used to be a new inode.
"""

from __future__ import annotations

import functools

from hypothesis import given, settings, strategies as st

from repro.bench.environment import make_testbed
from repro.blob import Blob
from repro.common.errors import ClientCrash
from repro.gear.gearfile import GearFile
from repro.gear.index import STUB_XATTR, GearIndex
from repro.gear.pool import SharedFilePool
from repro.net.faults import CrashPlan, CrashPoint
from repro.vfs import paths
from repro.vfs.inode import Metadata
from repro.vfs.overlay import OverlayMount
from repro.vfs.tar import LayerArchive
from repro.vfs.tree import FileSystemTree

SHELL = Blob.from_bytes(b"#!shell " * 40)
LIBC = Blob.from_bytes(b"libc" * 100)
#: Two images of one app: B shares A's shell and libc, and holds libc
#: twice; A's blob travels under a collision-handled unique ID.
IMAGES = {
    "app.gear:v1": {
        "/bin/sh": SHELL,
        "/etc/app.conf": Blob.from_bytes(b"release=1"),
        "/lib/libc.so": LIBC,
        "/usr/share/blob.dat": Blob.from_bytes(b"collision-handled A"),
    },
    "app.gear:v2": {
        "/bin/sh": SHELL,
        "/etc/app.conf": Blob.from_bytes(b"release=2"),
        "/lib/libc.so": LIBC,
        "/lib/libc-copy.so": LIBC,
    },
}
UNIQUE = {("app.gear:v1", "/usr/share/blob.dat"): "uid-00000001-0badc0de"}
#: Two containers of v1 and one of v2.
CONTAINERS = ("app.gear:v1", "app.gear:v1", "app.gear:v2")
#: What a container may look up: every file, and the symlink to the shell.
LOOKUPS = {
    reference: [*files, "/bin/bash"] for reference, files in IMAGES.items()
}


@functools.lru_cache(maxsize=None)
def registry_side():
    """The registries with both index images and every Gear file, and
    each image's frozen template, its node count and its digest."""
    root = make_testbed()
    for reference, files in IMAGES.items():
        tree = FileSystemTree()
        identity_for = {}
        for path, blob in sorted(files.items()):
            meta = Metadata(mode=0o755) if path.startswith("/bin/") else None
            node = tree.write_file(path, blob, meta=meta, parents=True)
            unique = UNIQUE.get((reference, path))
            if unique is not None:
                identity_for[node.ino] = unique
            root.gear_registry.upload(
                GearFile(identity=unique, blob=blob)
                if unique is not None
                else GearFile.from_blob(blob)
            )
        tree.symlink("/bin/bash", "sh")
        name, tag = reference.split(":")
        index = GearIndex.from_tree(
            name, tag, tree,
            identity_of=lambda node: identity_for.get(node.ino, node.blob.fingerprint),
        )
        root.docker_registry.push_image(index.to_image())
    templates = {}
    # The probe stays alive with the cache: a template lives as long as
    # the archive its daemon pulled.
    probe = root.fresh_client()
    for reference in IMAGES:
        template = probe.gear_driver.get_index(_pulled(probe, reference)).tree
        templates[reference] = (
            template, template.count_nodes(), LayerArchive.from_tree(template).digest
        )
    return root, templates, probe


def _pulled(bed, reference: str) -> str:
    bed.gear_driver.pull_index(reference)
    return reference


class HeadViewer(OverlayMount):
    """The reference view: one plain tree per index, which a fault
    materializes into, digested the way the viewer digests a stub."""

    def __init__(self, tree: FileSystemTree, index: GearIndex) -> None:
        super().__init__([tree])
        self.entries = index.entries

    def _content_token(self, path, node):
        if STUB_XATTR in node.meta.xattrs:
            entry = self.entries.get(path)
            return entry.identity if entry is not None else ""
        return super()._content_token(path, node)


def _place(tree: FileSystemTree, path: str, node) -> None:
    """Make ``node`` the entry at ``path`` (no ``nlink`` bookkeeping: the
    reference holds the pool's own inodes and counts them instead)."""
    *dirs, name = paths.split(path)
    directory = tree.root
    for part in dirs:
        directory = directory.children[part]
    directory.children[name] = node


def _shown(node):
    """What a node shows a reader; a pool inode (``owner is None``) by
    identity, since both views must show that very object."""
    return (
        node.kind,
        node.meta.mode,
        node.blob.fingerprint if node.blob is not None else None,
        node.symlink_target,
        id(node) if node.owner is None else None,
    )


class Node:
    """One client node driven both ways at once."""

    def __init__(self, capacity):
        root, self.templates, _ = registry_side()
        self.bed = root.fresh_client(pool=SharedFilePool(capacity_bytes=capacity))
        self.driver = self.bed.gear_driver
        self.pool = self.driver.pool
        #: Per live index: the reference tree and its pristine stubs.
        self.reference_of = {}
        #: Every pool inode ever linked, by id: one the pool has dropped
        #: since still counts its pool reference and its live links.
        self.linked = {}
        self.containers = [None] * len(CONTAINERS)
        for reference in IMAGES:
            self.deploy(reference)

    def deploy(self, reference):
        index = self.driver.get_index(_pulled(self.bed, reference))
        tree, _ = GearIndex._parse_archive(
            self.bed.daemon.get_image(reference).layers[0].archive
        )
        stubs = {path: tree.stat(path) for path in index.entries}
        self.reference_of[reference] = (index, tree, stubs)
        for slot, image in enumerate(CONTAINERS):
            if image == reference:
                container = self.driver.create_container(reference)
                self.containers[slot] = (container, HeadViewer(tree, index))

    # -- the operations ----------------------------------------------------

    def read(self, slot, pick, crash=None):
        container, head = self.containers[slot]
        reference = container.index.reference
        path = LOOKUPS[reference][pick % len(LOOKUPS[reference])]
        node, resolved = head._resolve(path)
        entry_path = paths.unsplit(resolved)
        entry = container.index.entries[entry_path]
        point = drop_first = None
        if crash is not None:
            point, drop_first = crash
            container.mount.crash = self.driver.arm_crash(
                CrashPlan(point=point, op_index=0)
            )
        try:
            data = container.mount.read_bytes(path)
        except ClientCrash:
            pass
        else:
            point = None
            assert data == IMAGES[reference][entry_path].materialize()
        finally:
            self.driver.disarm_crash()
            container.mount.crash = None
        _, tree, stubs = self.reference_of[reference]
        linked = point is None or point is CrashPoint.MID_LINK
        if STUB_XATTR in node.meta.xattrs and linked:
            inode = self.pool.peek(entry.identity)
            self.linked[id(inode)] = inode
            _place(tree, entry_path, inode)
        if point is None:
            return
        rolls_back = point is CrashPoint.MID_LINK and drop_first
        if rolls_back:
            self.pool.drop(entry.identity)  # the link now dangles
        report = self.driver.recover()
        assert report.nlink_fixes == 0
        assert report.links_rolled_back == int(bool(rolls_back))
        if rolls_back:
            _place(tree, entry_path, stubs[entry_path])
        self.read(slot, pick)  # resume

    def stat(self, slot, pick):
        container, head = self.containers[slot]
        lookups = LOOKUPS[container.index.reference]
        path = lookups[pick % len(lookups)]
        assert _shown(container.mount.stat(path)) == _shown(head.stat(path))

    def walk(self, slot):
        container, head = self.containers[slot]
        listing = [(p, _shown(n)) for p, n in container.mount.walk("/")]
        assert listing == [(p, _shown(n)) for p, n in head.walk("/")]

    def digest(self, slot):
        container, head = self.containers[slot]
        assert container.mount.fs_digest() == head.fs_digest()

    def remove_image(self, which):
        """Remove an image with its containers, then deploy it afresh."""
        reference = sorted(IMAGES)[which % len(IMAGES)]
        for container, _ in self.containers:
            if container.index.reference == reference:
                self.driver.destroy_container(container)
        self.driver.remove_image(reference)
        del self.reference_of[reference]
        self.deploy(reference)

    def drop(self, pick):
        identities = sorted(self.pool.identities())
        if identities:
            self.pool.drop(identities[pick % len(identities)])

    # -- the comparison ------------------------------------------------------

    def check(self):
        live = [tree for _, tree, _ in self.reference_of.values()]
        pooled = [self.pool.peek(identity) for identity in self.pool.identities()]
        for inode in [*pooled, *self.linked.values()]:
            links = sum(
                1 for tree in live for _, node in tree.iter_files() if node is inode
            )
            assert inode.nlink == 1 + links, inode
        for index, tree, _ in self.reference_of.values():
            for path in index.entries:
                shown = index.links.get(path) or index.tree.stat(path)
                assert _shown(shown) == _shown(tree.stat(path)), path
        for container, head in self.containers:
            assert container.mount.stats.inodes_touched == head.stats.inodes_touched
            linked_bytes = sum(inode.size for inode in container.index.links.values())
            assert linked_bytes == sum(
                node.size
                for _, node in head.lowers[0].iter_files()
                if STUB_XATTR not in node.meta.xattrs
            )

    def check_templates(self):
        for reference, (template, nodes, digest) in self.templates.items():
            assert template.read_only
            assert template.count_nodes() == nodes
            assert LayerArchive.from_tree(template).digest == digest
            assert self.driver.get_index(reference).tree is template
            assert all(
                not node.is_dir for node in self.driver.get_index(reference).links.values()
            )


_SLOT = st.integers(0, len(CONTAINERS) - 1)
_PICK = st.integers(0, 7)
OPS = st.one_of(
    st.tuples(st.just("read"), _SLOT, _PICK),
    st.tuples(st.just("stat"), _SLOT, _PICK),
    st.tuples(st.just("walk"), _SLOT),
    st.tuples(st.just("digest"), _SLOT),
    st.tuples(st.just("remove_image"), st.integers(0, 1)),
    st.tuples(st.just("drop"), _PICK),
    st.tuples(
        st.just("read"), _SLOT, _PICK,
        st.tuples(st.sampled_from(list(CrashPoint)), st.booleans()),
    ),
)


# The example count is the Hypothesis profile's (tests/conftest.py).
@settings(deadline=None)
@given(capacity=st.sampled_from([None, 600]), ops=st.lists(OPS, max_size=20))
def test_links_show_what_a_plain_tree_materialization_shows(capacity, ops):
    node = Node(capacity)
    for name, *args in ops:
        getattr(node, name)(*args)
        node.check()
    node.check_templates()


def test_every_crash_point_is_reached_and_resumed():
    """A pinned run: each crash point fires on a cold read, recovery
    repairs (or, with the pool entry gone, rolls back) and the resumed
    read links; a 600-byte pool evicts what no index pins any more."""
    node = Node(600)
    for pick, point in enumerate(CrashPoint):
        node.read(2, pick, (point, pick % 2 == 1))
        node.check()
    node.read(0, 0, (CrashPoint.MID_LINK, True))
    node.remove_image(1)  # v2's files are pinned no more
    for pick in range(5):
        node.read(0, pick)
        node.check()
    node.digest(1)
    node.walk(2)
    node.check()
    assert node.pool.stats.evictions > 0
    node.check_templates()
