"""The index a process writes is the index its pulls read.

A Gear index is its layer archive's columns plus one identity/size
column.  ``GearIndex.from_rows`` registers that column, as a lower tree
and an entry view over the columns, as the template of the archive it
builds, so ``from_image`` never parses an archive this process wrote
(DESIGN.md §13, "Template caches").  That is only sound if the template
is exactly what ``GearIndex._parse_archive`` would build from the
archive: these tests compare the two node for node, and pin where each
is used.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.deploy import deploy_with_gear
from repro.bench.environment import make_testbed, publish_images
from repro.common.errors import GearError
from repro.docker.builder import ImageBuilder
from repro.gear.commit import commit_container
from repro.gear.index import STUB_MAGIC, STUB_XATTR, GearIndex
from repro.vfs.inode import Metadata
from repro.vfs.tree import FileSystemTree
from tests.test_docker_builder import image_from_tree


def nodes(tree):
    """Every node of ``tree``, root first, with all an archive carries
    and all a reader of the index could observe.  ``Metadata`` compares
    by identity: equal values are one object (``vfs/inode.py``)."""
    return [
        (path, node.kind.value, node.meta,
         (node.blob.fingerprint, node.blob.size) if node.is_file else None,
         node.symlink_target, node.opaque, node.nlink)
        for path, node in [("/", tree.root), *tree.walk("/", include_whiteouts=True)]
    ]


def assert_registered_as_parsed(image):
    """The template the writer left for ``image`` is its parse."""
    archive = image.layers[0].archive
    tree, entries = archive.index_template
    parsed_tree, parsed_entries = GearIndex._parse_archive(archive)
    assert nodes(tree) == nodes(parsed_tree)
    assert dict(entries) == dict(parsed_entries)
    assert tree.read_only and parsed_tree.read_only


_NAMES = st.sampled_from(["a", "b", "a-b", "a.b", "z"])
_METAS = st.builds(
    Metadata,
    mode=st.sampled_from([0o600, 0o644, 0o700, 0o755, 0o4755]),
    uid=st.integers(0, 2),
    gid=st.integers(0, 2),
)
_CONTENTS = st.sampled_from([b"", b"x", b"same", b"same", b"y" * 700])


@st.composite
def image_roots(draw):
    """A flattened image root: nested and empty directories, files of
    assorted mode and owner, symlinks, and sometimes a whiteout and a
    hard-linked pair in the root; some files named by ``uid-`` identities
    the way the converter names colliding contents.  Returns the root and
    the ``identity_of`` to index it with."""
    tree = FileSystemTree()
    identity_for = {}
    directories = [""]
    for _ in range(draw(st.integers(0, 14))):
        path = f"{draw(st.sampled_from(directories))}/{draw(_NAMES)}"
        if tree.exists(path, follow_symlinks=False):
            continue
        kind = draw(st.sampled_from(["dir", "dir", "file", "file", "file", "symlink"]))
        meta = draw(_METAS)
        if kind == "dir":
            tree.mkdir(path, meta=meta)
            directories.append(path)
        elif kind == "symlink":
            target = draw(st.sampled_from(["a", "../b", "/a/z", "/missing"]))
            tree.symlink(path, target, meta=meta)
        else:
            node = tree.write_file(path, draw(_CONTENTS), meta=meta)
            if draw(st.booleans()):
                identity_for[node.ino] = f"uid-{len(identity_for):08d}-{node.ino}"
    if draw(st.booleans()):
        tree.whiteout("/gone")
    if draw(st.booleans()):
        node = tree.write_file("/linked", draw(_CONTENTS), meta=draw(_METAS))
        tree.hardlink("/linked-too", "/linked")
        if draw(st.booleans()):
            identity_for[node.ino] = f"uid-{len(identity_for):08d}-linked"
    return tree, lambda node: identity_for.get(node.ino, node.blob.fingerprint)


@settings(deadline=None)  # example count: the profile's (conftest.py)
@given(image_roots())
def test_to_image_registers_what_the_parse_would_build(drawn):
    root, identity_of = drawn
    index = GearIndex.from_tree("i.gear", "v1", root, identity_of=identity_of)
    assert_registered_as_parsed(index.to_image())


def test_a_committed_index_registers_what_the_parse_would_build():
    bed = make_testbed()
    bed.docker_registry.push_image(
        ImageBuilder("app", "v1")
        .add_file("/bin/tool", b"tool" * 1000, mode=0o755)
        .add_file("/etc/conf", b"original")
        .add_file("/opt/app/lib", b"library")
        .add_file("/usr/share/doc", b"docs")
        .add_file("/var/state", b"a file")
        .build()
    )
    bed.converter.convert("app:v1")
    container, _ = bed.gear_driver.deploy("app.gear:v1")
    mount = container.mount
    mount.write_file("/etc/added", b"fresh content")
    mount.write_file("/etc/conf", b"rewritten")
    mount.write_file("/srv/new/deep", b"deep", parents=True)
    mount.remove("/bin/tool")
    mount.symlink("/etc/link", "conf")
    # A directory of stubs replaced by a symlink, and one by a file.
    mount.remove("/opt", recursive=True)
    mount.symlink("/opt", "/etc")
    mount.remove("/usr", recursive=True)
    mount.write_file("/usr", b"a file now")
    # A stub replaced by a directory.
    mount.remove("/var/state")
    mount.mkdir("/var/state")
    mount.write_file("/var/state/inner", b"a directory now")
    committed, _ = commit_container(
        container, "app.gear", "v2", daemon=bed.daemon, transport=bed.transport
    )
    image = bed.daemon.get_image("app.gear:v2")
    assert image.layers[0].archive.index_template[0] is committed.tree
    assert_registered_as_parsed(image)
    assert sorted(committed.entries) == [
        "/etc/added", "/etc/conf", "/srv/new/deep", "/usr", "/var/state/inner"
    ]


def test_the_index_holds_only_what_its_archive_carries():
    """The writer builds the archive first and reads its index from it
    alone, so an attribute a member cannot carry is in neither the index
    the writer keeps nor the one a parse builds: they cannot differ."""
    root = FileSystemTree()
    root.write_file("/f", b"x", meta=Metadata().with_xattr("user.tag", "1"))
    root.mkdir("/d")
    root.set_opaque("/d")
    index = GearIndex.from_tree("i.gear", "v1", root)
    assert dict(index.tree.stat("/f").meta.xattrs) == {STUB_XATTR: "1"}
    assert not index.tree.stat("/d").opaque
    assert_registered_as_parsed(index.to_image())


# -- who parses -------------------------------------------------------------------


@pytest.fixture
def parsed(monkeypatch):
    """Every archive ``GearIndex._parse_archive`` is called with."""
    calls = []
    parse = GearIndex._parse_archive
    monkeypatch.setattr(
        GearIndex, "_parse_archive",
        staticmethod(lambda archive: calls.append(archive) or parse(archive)),
    )
    return calls


def test_a_foreign_index_is_parsed_once_for_every_client(parsed):
    stubs = FileSystemTree()
    stubs.write_file(
        "/f", f"{STUB_MAGIC}{'a' * 32}:4\n", meta=Metadata(mode=0o600), parents=True
    )
    image = image_from_tree("hand.gear", "v1", stubs, gear_index=True)
    bed = make_testbed()
    bed.docker_registry.push_image(image)
    indexes = []
    for client in (bed.fresh_client(), bed.fresh_client()):
        client.gear_driver.pull_index("hand.gear:v1")
        indexes.append(client.gear_driver.get_index("hand.gear:v1"))
    assert parsed == [image.layers[0].archive]
    assert indexes[0].tree is indexes[1].tree
    assert indexes[0].entries["/f"].size == 4
    # A malformed foreign stub still fails at its parse.
    stubs.write_file("/g", f"{STUB_MAGIC}broken")
    with pytest.raises(GearError):
        GearIndex.from_image(image_from_tree("bad.gear", "v1", stubs, gear_index=True))


def test_a_later_conversion_outlives_an_earlier_equal_one(distro_corpus, parsed):
    """World B's conversion keeps its template on B's archive, though
    world A's equal one is still alive then; A's death leaves B's."""
    generated = distro_corpus.images[0]
    world_a, world_b = make_testbed(), make_testbed()
    publish_images(world_a, [generated], convert=True)
    publish_images(world_b, [generated], convert=True)
    archives = [
        world.docker_registry.get_layer(
            world.docker_registry.get_manifest(generated.gear_reference).layer_digests[0]
        ).archive
        for world in (world_a, world_b)
    ]
    assert archives[0] == archives[1] and archives[0] is not archives[1]
    del world_a, archives
    gc.collect()
    deploy_with_gear(world_b.fresh_client(), generated)
    assert parsed == []


def test_a_second_to_image_leaves_the_pushed_image_parse_free(distro_corpus, parsed):
    """A second image of one index once re-keyed the template onto a new
    archive that died with that image, and the pushed image's next pull
    parsed.  An index's image is its own archive."""
    generated = distro_corpus.images[0]
    bed = make_testbed()
    bed.docker_registry.push_image(generated.image)
    index, _ = bed.converter.convert(generated.reference)
    again = index.to_image()
    assert again.layers[0].archive is index.archive
    del again
    gc.collect()
    deploy_with_gear(bed.fresh_client(), generated)
    assert parsed == []


def test_a_pass_over_a_converted_world_parses_nothing(small_corpus, parsed):
    """The perf ledger's ``seqdeploy`` pass, in small: each pass builds a
    world that pushes and converts every image, then deploys each on a
    cold client; the world goes before the next pass builds its own."""
    for _ in range(2):  # a warm-up pass, then a timed one
        world = make_testbed()
        publish_images(world, small_corpus.images, convert=True)
        for generated in small_corpus.images:
            deploy_with_gear(world.fresh_client(), generated)
        del world
        gc.collect()
    assert parsed == []
