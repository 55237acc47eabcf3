"""The path layer's walks against the walks they replaced.

The one-split/one-descent path layer (DESIGN.md §13, "Path layer") must
answer exactly as the code it replaced did.  That code lives on here, as
plain reference functions, and Hypothesis compares the two:

* ``paths.split`` against the component loop;
* ``OverlayMount._resolve``/``listdir``/``walk`` against a resolution
  that recomputes the merged directory stack from the layer roots for
  every component, and a walk that lists and stats each child by path;
* ``LayerArchive.apply_to``/``extract_diff`` and
  ``GearIndex._parse_archive`` against entry-by-entry references that
  use nothing but the public, path-taking tree methods;
* the column lower of a Gear index against a ``FileSystemTree`` parse of
  the same archive, bare and under a viewer with links.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.blob import Blob
from repro.gear.gearfile import GearFile
from repro.gear.pool import SharedFilePool
from repro.gear.viewer import GearFileViewer
from repro.common.errors import (
    GearError,
    NotADirectoryVfsError,
    NotFoundError,
    SymlinkLoopError,
    VfsError,
)
from repro.gear.index import STUB_XATTR, GearFileEntry, GearIndex
from repro.vfs import paths
from repro.vfs.inode import FileKind, Metadata
from repro.vfs.overlay import OverlayMount
from repro.vfs.tar import OPAQUE_MARKER, WHITEOUT_PREFIX, LayerArchive, TarEntry
from repro.vfs.tree import FileSystemTree
from tests.test_vfs_cow import apply_op, listing, ops_on
from tests.test_gear_index_templates import image_roots

# -- paths.split --------------------------------------------------------------


def split_reference(path):
    """The component loop every split used to run."""
    if not path.startswith("/"):
        raise VfsError(f"path must be absolute: {path!r}")
    parts = []
    for component in path.split("/"):
        if component in ("", "."):
            continue
        if component == "..":
            if not parts:
                raise VfsError(f"path escapes root: {path!r}")
            parts.pop()
        else:
            parts.append(component)
    return parts


def result_of(action):
    """What ``action`` returned, or the class of the error it raised."""
    try:
        return action()
    except (VfsError, NotFoundError) as error:
        return type(error)


_COMPONENTS = st.sampled_from(
    ["", ".", "..", "a", "b", ".hidden", "..b", "a.", "...", " ", "a b"]
)
_RAW_PATHS = st.builds(
    lambda lead, parts: lead + "/".join(parts),
    st.sampled_from(["/", "/", "/", "", "//"]),
    st.lists(_COMPONENTS, max_size=7),
)


@given(_RAW_PATHS)
@example("/")
@example("")
@example("a/b")
@example("/a//b/./c/")
@example("/a/../..")
@example("/.hidden/..b/...")
@example("/a/b/..")
def test_split_matches_the_component_loop(path):
    assert result_of(lambda: paths.split(path)) == result_of(
        lambda: split_reference(path)
    )


# -- overlay resolution ---------------------------------------------------------

_MAX_SYMLINKS = 40


def join_reference(parts):
    return "/" + "/".join(parts)


def symlink_target_reference(dir_parts, target):
    """Where a symlink in the directory ``dir_parts`` points, lexically."""
    if target.startswith("/"):
        return split_reference(target)
    return split_reference(join_reference(list(dir_parts) + [target]))


def dir_stack_reference(mount, parts):
    """The merged directory at ``parts``, recomputed from the layer roots."""
    current = [mount.upper.root] + [tree.root for tree in mount.lowers]
    for name in parts:
        merged = []
        for dir_inode in current:
            child = dir_inode.children.get(name)
            if child is None:
                continue
            if child.is_whiteout or not child.is_dir:
                break
            merged.append(child)
            if child.opaque:
                break
        current = merged
        if not current:
            return []
    return current


def visible_child_reference(mount, dir_parts, name):
    for dir_inode in dir_stack_reference(mount, dir_parts):
        child = dir_inode.children.get(name)
        if child is None:
            continue
        return None if child.is_whiteout else child
    return None


def resolve_reference(mount, path, follow_symlinks=True):
    parts = split_reference(path)
    resolved = []
    depth = index = 0
    node = None
    while index < len(parts):
        name = parts[index]
        node = visible_child_reference(mount, resolved, name)
        if node is None:
            raise NotFoundError(path)
        is_last = index == len(parts) - 1
        if node.is_symlink and (follow_symlinks or not is_last):
            depth += 1
            if depth > _MAX_SYMLINKS:
                raise SymlinkLoopError(path)
            parts = symlink_target_reference(resolved, node.symlink_target) + list(
                parts[index + 1 :]
            )
            resolved = []
            index = 0
            continue
        if not is_last and not node.is_dir:
            raise NotADirectoryVfsError(path)
        resolved.append(name)
        index += 1
    if not parts:
        return dir_stack_reference(mount, [])[0], []
    return node, resolved


def listdir_reference(mount, path):
    node, resolved = resolve_reference(mount, path)
    if not node.is_dir:
        raise NotADirectoryVfsError(path)
    names, hidden = {}, set()
    for dir_inode in dir_stack_reference(mount, resolved):
        for name, child in dir_inode.children.items():
            if name in hidden or name in names:
                continue
            if child.is_whiteout:
                hidden.add(name)
            else:
                names[name] = True
    return sorted(names)


def walk_reference(mount, top):
    """List every directory and stat every child, each by path from ``/``."""
    top_norm = join_reference(split_reference(top))
    node, _ = resolve_reference(mount, top_norm)
    if not node.is_dir:
        raise NotADirectoryVfsError(top)
    rows = []

    def below(dir_path):
        for name in listdir_reference(mount, dir_path):
            child_path = dir_path.rstrip("/") + "/" + name
            child, _ = resolve_reference(mount, child_path, follow_symlinks=False)
            rows.append((child_path, child))
            if child.is_dir:
                below(child_path)

    below(top_norm)
    return rows


@st.composite
def layer_stacks(draw):
    """An overlay mount over 1-4 random layers (the first is the upper),
    each grown by the CoW suite's op generator: directories, files,
    absolute and relative symlinks, loops, whiteouts, opaque flags."""
    layers = []
    for _ in range(draw(st.integers(1, 4))):
        tree = FileSystemTree()
        for _ in range(draw(st.integers(0, 10))):
            apply_op(tree, draw(ops_on(tree)))
        layers.append(tree)
    return OverlayMount(layers[1:], layers[0])


def probes_of(mount):
    """Paths worth asking a mount about: every path of every layer, a
    name below each, and a few spelled with ``.``, ``..`` and ``//``."""
    known = {"/"}
    for tree in (mount.upper, *mount.lowers):
        known.update(path for path, _ in tree.walk("/", include_whiteouts=True))
    probes = sorted(known)
    probes += [path.rstrip("/") + "/" + name for path in sorted(known) for name in "al"]
    probes += ["/a/../l/./a", "//l//", "/a/b/c/../../..", "/../a"]
    return probes


def same_resolution(mount, path, follow):
    new = result_of(lambda: mount._resolve(path, follow_symlinks=follow))
    old = result_of(lambda: resolve_reference(mount, path, follow))
    if isinstance(new, tuple):
        assert isinstance(old, tuple), (path, follow, new, old)
        assert new[0] is old[0] and list(new[1]) == old[1], (path, follow)
    else:
        assert new is old, (path, follow, new, old)


@settings(deadline=None)  # example count: the profile's (conftest.py)
@given(layer_stacks())
def test_overlay_answers_as_the_per_component_resolution_did(mount):
    for path in probes_of(mount):
        for follow in (True, False):
            same_resolution(mount, path, follow)
        new = result_of(lambda: mount.listdir(path))
        assert new == result_of(lambda: listdir_reference(mount, path)), path
        mount = OverlayMount(mount.lowers, mount.upper)  # nothing touched yet
        walked = result_of(lambda: list(mount.walk(path)))
        expected = result_of(lambda: walk_reference(mount, path))
        if isinstance(expected, list):
            assert [(p, id(n)) for p, n in walked] == [(p, id(n)) for p, n in expected]
            # The unmount-cost model counts the inodes a walk touched:
            # the top (unless it resolves to the root) and everything yielded.
            touched = {n.ino for _, n in expected}
            top, resolved = resolve_reference(mount, path)
            if resolved:
                touched.add(top.ino)
            assert set(mount._touched) == touched
        else:
            assert walked is expected, path


@settings(deadline=None)
@given(layer_stacks(), st.data())
def test_touched_column_is_the_set_of_inode_numbers_looked_up(mount, data):
    """Lookups, listings, walks and remounts in any order: the sorted
    column holds what a set of the touched inode numbers would."""
    probes = probes_of(mount)
    touched = set()
    for _ in range(data.draw(st.integers(1, 12))):
        action = data.draw(st.sampled_from(["stat", "lstat", "listdir", "walk", "reset"]))
        if action == "reset":  # a fresh mount of the same layers
            mount = OverlayMount(mount.lowers, mount.upper)
            touched = set()
        else:
            path = data.draw(st.sampled_from(probes))
            follow = action != "lstat"
            # Whatever the path resolves to is touched (the root is not),
            # even when the operation then rejects it as not a directory.
            found = result_of(lambda: resolve_reference(mount, path, follow))
            if isinstance(found, tuple) and found[1]:
                touched.add(found[0].ino)
            if action == "listdir":
                result_of(lambda: mount.listdir(path))
            elif action == "walk":
                result_of(lambda: list(mount.walk(path)))
                expected = result_of(lambda: walk_reference(mount, path))
                if isinstance(expected, list):
                    touched.update(node.ino for _, node in expected)
            else:
                result_of(lambda: mount.stat(path, follow_symlinks=follow))
        assert list(mount._touched) == sorted(touched)
        assert mount.stats.inodes_touched == len(touched)


def test_overlay_pinned_shapes():
    """Shapes the generator reaches rarely, spelled out."""
    lower, middle, upper = FileSystemTree(), FileSystemTree(), FileSystemTree()
    lower.write_file("/d/sub/deep", b"1", parents=True)
    lower.write_file("/d/f", b"2")
    lower.symlink("/abs", "/d/sub")
    lower.symlink("/d/rel", "sub/../sub")
    lower.symlink("/loop", "/loop2")
    lower.symlink("/loop2", "/loop")
    middle.mkdir("/d/sub", parents=True)
    middle.set_opaque("/d/sub")
    middle.write_file("/d/sub/mid", b"3")
    middle.whiteout("/d/f")
    upper.write_file("/d", b"file shadows dir")
    for mount in (
        OverlayMount([middle, lower]),
        OverlayMount([lower, middle]),
        OverlayMount([middle, lower], upper),
    ):
        for path in probes_of(mount) + ["/abs/deep", "/d/rel/mid", "/loop/x"]:
            for follow in (True, False):
                same_resolution(mount, path, follow)
            assert result_of(lambda: mount.listdir(path)) == result_of(
                lambda: listdir_reference(mount, path)
            )


# -- bulk loaders -----------------------------------------------------------------


def real_path(tree, path):
    """``path`` spelled without symlinks, found with ``stat`` alone: a
    reference that names a node again after removing it must not walk
    through a symlink the removal just took away."""
    parts, resolved, hops, index = split_reference(path), [], 0, 0
    while index < len(parts):
        node = tree.stat(join_reference(resolved + [parts[index]]), follow_symlinks=False)
        if node.is_symlink:
            hops += 1
            if hops > _MAX_SYMLINKS:
                raise VfsError("loop")
            parts = symlink_target_reference(resolved, node.symlink_target) + parts[index + 1 :]
            resolved, index = [], 0
        else:
            resolved.append(parts[index])
            index += 1
    return join_reference(resolved)


def apply_reference(archive, tree):
    """``LayerArchive.apply_to`` as it was: every step a public,
    path-taking tree method that parses and descends from the root."""
    for entry in archive.entries:
        parent_rel, name = paths.parent_and_name(entry.path)
        if name == OPAQUE_MARKER:
            if tree.exists(parent_rel) and tree.stat(parent_rel).is_dir:
                for child in tree.listdir(parent_rel):
                    tree.remove(join_reference(split_reference(parent_rel) + [child]), recursive=True)
            continue
        if name.startswith(WHITEOUT_PREFIX) and name != OPAQUE_MARKER:
            victim = join_reference(split_reference(parent_rel) + [name[len(WHITEOUT_PREFIX) :]])
            if tree.exists(victim, follow_symlinks=False):
                tree.remove(victim, recursive=True)
            continue
        if not tree.is_dir(parent_rel):  # a symlink to a directory will do
            tree.mkdir(parent_rel, parents=True, exist_ok=True)
        path = join_reference(split_reference(real_path(tree, parent_rel)) + [name])
        meta = Metadata(mode=entry.mode, uid=entry.uid, gid=entry.gid)
        live = tree.exists(path, follow_symlinks=False)
        if entry.kind is FileKind.DIRECTORY:
            if live and not tree.stat(path, follow_symlinks=False).is_dir:
                tree.remove(path)
                live = False
            if not live:
                tree.mkdir(path, meta=meta)
        elif entry.kind is FileKind.SYMLINK:
            if live:
                tree.remove(path, recursive=True)
            tree.symlink(path, entry.symlink_target, meta=meta)
        else:
            if live and tree.stat(path, follow_symlinks=False).is_dir:
                tree.remove(path, recursive=True)
            tree.write_file(path, entry.blob, meta=meta)
    return tree


def extract_diff_reference(archive):
    tree = FileSystemTree()
    for entry in archive.entries:
        parent_rel, name = paths.parent_and_name(entry.path)
        if not tree.is_dir(parent_rel):
            tree.mkdir(parent_rel, parents=True, exist_ok=True)
        parent_rel = real_path(tree, parent_rel)
        path = join_reference(split_reference(parent_rel) + [name])
        if name == OPAQUE_MARKER:
            tree.set_opaque(parent_rel)
            continue
        if name.startswith(WHITEOUT_PREFIX) and name != OPAQUE_MARKER:
            tree.whiteout(join_reference(split_reference(parent_rel) + [name[len(WHITEOUT_PREFIX) :]]))
            continue
        meta = Metadata(mode=entry.mode, uid=entry.uid, gid=entry.gid)
        if entry.kind is FileKind.DIRECTORY:
            tree.mkdir(path, parents=True, exist_ok=True).meta = meta
        elif entry.kind is FileKind.SYMLINK:
            tree.symlink(path, entry.symlink_target, meta=meta)
        else:
            tree.write_file(path, entry.blob, meta=meta)
    return tree


def parse_reference(archive):
    """``GearIndex._parse_archive`` as it was: extract, walk, rebuild."""
    root = apply_reference(archive, FileSystemTree())
    tree = FileSystemTree()
    entries = {}
    for path, node in root.walk("/"):
        if node.is_dir:
            tree.mkdir(path, parents=True, exist_ok=True).meta = node.meta
        elif node.is_symlink:
            tree.symlink(path, node.symlink_target, meta=node.meta)
        elif node.is_file:
            text = node.blob.materialize().decode("utf-8", errors="replace")
            entries[path] = GearFileEntry.parse_stub(path, text, node.meta.mode)
            meta = node.meta.with_xattr(STUB_XATTR, "1")
            tree.write_file(path, node.blob, meta=meta, parents=True)
    return tree, entries


_ENTRY_NAMES = st.sampled_from(["a", "b", "l", "-x", "a-x"])
_ENTRY_DIRS = st.builds(
    lambda parts: "".join("/" + part for part in parts),
    st.lists(_ENTRY_NAMES, max_size=3),
)


def stub_file(path, mode=0o644, uid=0, identity="x" * 32):
    stub = GearFileEntry(path, identity, 7, mode)
    return TarEntry(
        path, FileKind.FILE, mode, uid, 0, blob=Blob.from_text(stub.stub_content())
    )


def marker(path):
    """A ``.wh.`` entry: whiteout or opaque marker, by its name."""
    return TarEntry(path, FileKind.FILE, 0, 0, 0, blob=Blob.from_bytes(b""))


@st.composite
def tar_entries(draw):
    """One entry below a short directory path: a directory, a stub file,
    a symlink, a whiteout or an opaque marker."""
    head = draw(_ENTRY_DIRS)
    name = draw(_ENTRY_NAMES)
    mode = draw(st.sampled_from([0o600, 0o644, 0o755]))
    uid = draw(st.integers(0, 1))
    kind = draw(st.sampled_from(["dir", "file", "file", "symlink", "wh", "opq"]))
    if kind == "dir":
        return TarEntry(f"{head}/{name}", FileKind.DIRECTORY, mode, uid, 0)
    if kind == "symlink":
        target = draw(st.sampled_from(["a", "../a", "/a/b", "/l", "b/l"]))
        return TarEntry(
            f"{head}/{name}", FileKind.SYMLINK, mode, uid, 0, symlink_target=target
        )
    if kind == "file":
        return stub_file(f"{head}/{name}", mode, uid, draw(st.sampled_from("xyz")) * 32)
    return marker(f"{head}/{OPAQUE_MARKER if kind == 'opq' else WHITEOUT_PREFIX + name}")


def unique_paths(entries):
    return list({entry.path: entry for entry in entries}.values())


_ARCHIVES = st.lists(tar_entries(), max_size=12).map(unique_paths).map(LayerArchive)


def outcome_and_listing(action):
    """The listing of the tree ``action`` built, or ``VfsError``: an
    archive no tree can hold (a file with entries beneath it) fails in
    both implementations, though not always at the same step."""
    try:
        return listing(action())
    except (VfsError, NotFoundError):
        return VfsError


@settings(deadline=None)  # example count: the profile's (conftest.py)
@given(st.lists(_ARCHIVES, min_size=1, max_size=3), st.booleans())
# Found while writing: an entry reached through the very symlink it
# replaces lands in the directory the link led to.
@example(
    [
        LayerArchive(
            [
                TarEntry("/a", FileKind.DIRECTORY, 0o755, 0, 0),
                TarEntry("/a/a", FileKind.SYMLINK, 0o644, 0, 0, symlink_target="../a"),
                TarEntry("/a/a/a", FileKind.DIRECTORY, 0o755, 0, 0),
            ]
        )
    ],
    False,
)
def test_apply_to_matches_the_entry_by_entry_unpack(layers, through_a_clone):
    """Layers applied bottom-up (kind changes, whiteouts and opaque
    markers meeting what earlier layers left), onto a plain tree or onto
    a copy-on-write clone of the frozen lower part."""

    def unpack(apply):
        tree = FileSystemTree()
        for archive in layers[:-1]:
            apply(archive, tree)
        if through_a_clone:
            frozen = listing(tree.freeze(), with_ino=True)
            clone = apply(layers[-1], tree.clone())
            assert listing(tree, with_ino=True) == frozen
            return clone
        return apply(layers[-1], tree)

    assert outcome_and_listing(
        lambda: unpack(lambda archive, tree: archive.apply_to(tree))
    ) == outcome_and_listing(lambda: unpack(apply_reference))


def index_shaped(archive):
    """Could an index have written ``archive``: every member once, below
    the root or a directory member, and no ``.wh.`` marker?"""
    directories, seen = {""}, set()
    for entry in archive.entries:
        head, _, name = entry.path.rpartition("/")
        if head not in directories or name.startswith(WHITEOUT_PREFIX) or (
            entry.path in seen
        ):
            return False
        seen.add(entry.path)
        if entry.kind is FileKind.DIRECTORY:
            directories.add(entry.path)
    return True


@settings(max_examples=100, deadline=None)
@given(_ARCHIVES)
# Found while writing: a diff tree cannot hold a whiteout below a file,
# and must say so rather than skip the entry as ``apply_to`` may.
@example(LayerArchive([stub_file("/a"), marker("/a/.wh.a")]))
@example(
    LayerArchive(
        [
            TarEntry("/a", FileKind.DIRECTORY, 0o700, 1, 0),
            stub_file("/a/b", 0o600),
            TarEntry("/a/l", FileKind.SYMLINK, 0o644, 0, 0, symlink_target="../a-x"),
            stub_file("/a-x"),
        ]
    )
)
def test_extract_diff_and_parse_match_their_references(archive):
    """The diff unpack matches its reference; the column parse accepts
    exactly the archives an index can be, and its lower tree lists what
    the unpacking parse it replaced built."""
    assert outcome_and_listing(archive._extract_diff_uncached) == outcome_and_listing(
        lambda: extract_diff_reference(archive)
    )

    def parsed(parse):
        tree, entries = parse(archive)
        return listing(tree), sorted(entries.items())

    try:
        columns = parsed(GearIndex._parse_archive)
    except GearError:
        assert not index_shaped(archive)
        return
    assert index_shaped(archive)
    assert columns == parsed(parse_reference)


def test_archive_round_trip_through_every_loader():
    """``from_tree`` → ``apply_to``/``extract_diff`` over a tree with
    every node kind, a sub-tree ``top`` and names that sort around ``/``."""
    tree = FileSystemTree()
    tree.write_file("/a/b/c", b"1", parents=True, meta=Metadata(mode=0o600, uid=3))
    tree.write_file("/a-x", b"2")
    tree.write_file("/a/.hidden", b"3")
    tree.symlink("/a/l", "b/c")
    tree.mkdir("/a/o/p", parents=True)
    tree.set_opaque("/a/o")
    tree.whiteout("/a/b/gone")
    archive = LayerArchive.from_tree(tree)
    assert [entry.path for entry in archive.entries] == sorted(
        ["/a", "/a-x", "/a/.hidden", "/a/b", "/a/b/c", "/a/b/.wh.gone", "/a/l",
         "/a/o", "/a/o/" + OPAQUE_MARKER, "/a/o/p"]
    )
    assert listing(archive._extract_diff_uncached()) == listing(
        extract_diff_reference(archive)
    )
    assert listing(archive.apply_to(FileSystemTree())) == listing(
        apply_reference(archive, FileSystemTree())
    )


# -- the column lower against a tree parse ---------------------------------------


def shown(result):
    """What a reader sees of a lookup's result: a node by its fields, not
    its identity (the two sides mint their own inodes)."""
    if not hasattr(result, "kind"):
        return result
    meta = result.meta
    return (
        result.kind, meta.mode, meta.uid, meta.gid, sorted(meta.xattrs.items()),
        result.blob.fingerprint if result.blob is not None else None,
        result.symlink_target, result.nlink,
    )


def probe(view, op, path):
    """One read-only operation of ``view`` (a tree or a mount), shown."""
    if op == "walk":
        return result_of(lambda: [(p, shown(n)) for p, n in view.walk(path)])
    if op == "read":
        return result_of(lambda: view.read_blob(path).fingerprint)
    call = {
        "exists": lambda: view.exists(path),
        "lexists": lambda: view.exists(path, follow_symlinks=False),
        "stat": lambda: view.stat(path),
        "lstat": lambda: view.stat(path, follow_symlinks=False),
        "readlink": lambda: view.readlink(path),
        "listdir": lambda: view.listdir(path),
    }[op]
    return shown(result_of(call))


_INDEX_NAMES = ["a", "b", "a-b", "a.b", "z", "linked"]
#: Writes a container makes to its upper before it reads: a file, a
#: removal (a whiteout over a lower entry), a directory, and a directory
#: made over the whiteout of a removal (opaque).
_UPPER_OPS = {
    "write": lambda view, path: view.write_file(path, b"upper", parents=True) and None,
    "remove": lambda view, path: view.remove(path, recursive=True),
    "mkdir": lambda view, path: view.mkdir(path, parents=True) and None,
    "opaque": lambda view, path: view.remove(path, recursive=True) or view.mkdir(path) and None,
}
_LOWER_OPS = ["exists", "lexists", "stat", "lstat", "readlink", "listdir", "walk"]


@settings(deadline=None)  # example count: the profile's (conftest.py)
@given(image_roots(), st.data())
def test_the_column_lower_answers_as_a_tree_parse_would(drawn, data):
    """Over a converted root, the index's column lower and the tree the
    unpacking parse builds from the same archive agree on every lookup,
    stat, readlink, listing and walk, bare and under a viewer whose reads
    link pool files over the stubs; so do the viewers' digests."""
    root, identity_of = drawn
    index = GearIndex.from_tree("i.gear", "v1", root, identity_of=identity_of)
    parsed_tree, parsed_entries = parse_reference(index.archive)
    twin = LayerArchive.from_rows([row[:7] for row in index.entries.rows()])
    twin.index_template = (parsed_tree, parsed_entries)
    reference = GearIndex("i.gear", "v1", twin)
    walked = [path for path, _ in root.walk("/", include_whiteouts=True)]
    # Every name one and two deep, so a lookup meets the paths that sort
    # beside it ("/a" beside "/a-b", "/a.b" and "/a/b").
    near = [f"/{a}{tail}" for a in _INDEX_NAMES for tail in ["", *(f"/{b}" for b in _INDEX_NAMES)]]
    paths_drawn = st.sampled_from(["/", "/missing", "/a/b/a", "/linked/x", *walked, *near])
    for _ in range(data.draw(st.integers(1, 10))):
        op, path = data.draw(st.sampled_from(_LOWER_OPS)), data.draw(paths_drawn)
        assert probe(index.tree, op, path) == probe(parsed_tree, op, path), (op, path)

    viewers = []
    for side in (index, reference):
        pool = SharedFilePool()
        for path, node in root.iter_files():
            identity = identity_of(node)
            if not pool.contains(identity):
                pool.prepare(GearFile(identity=identity, blob=node.blob))
                pool.commit(identity)
        viewers.append(GearFileViewer(side, pool))
    # The reference's entries are a plain mapping, so its viewer always
    # walks; the column viewer answers a file of the index by its row
    # unless the upper holds or masks the path.  Give the upper files,
    # whiteouts over lower files and opaque directories over whiteouts
    # first, and read through the index's symlinks too.
    through = [f"{path}/{name}" for path, node in root.walk("/") if node.is_symlink
               for name in _INDEX_NAMES]
    paths_drawn = st.sampled_from(["/", "/missing", "/a/b/a", "/linked/x",
                                   *walked, *near, *through])
    for _ in range(data.draw(st.integers(0, 6))):
        op = data.draw(st.sampled_from(list(_UPPER_OPS)))
        path = data.draw(paths_drawn)
        column, tree = (result_of(lambda: _UPPER_OPS[op](viewer, path))
                        for viewer in viewers)
        assert column == tree, (op, path)
    for _ in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from(["read", "read", "read", *_LOWER_OPS]))
        path = data.draw(paths_drawn)
        column, tree = (
            (probe(viewer, op, path), viewer.stats.lookups, viewer.stats.inodes_touched)
            for viewer in viewers
        )
        assert column == tree, (op, path)
    assert sorted(index.links) == sorted(reference.links)
    assert viewers[0].fs_digest() == viewers[1].fs_digest()
    # The digest's walk reaches the very nodes the row lookups minted.
    assert viewers[0].stats.inodes_touched == viewers[1].stats.inodes_touched
    assert listing(index.tree) == listing(parsed_tree)
