"""Cross-cutting property-based tests (hypothesis).

These exercise the load-bearing invariants of the reproduction:

* overlay mounts behave like a reference dict-of-paths model;
* Gear indexes round-trip through the Docker image format for arbitrary
  trees;
* dedup accounting is invariant to image order and monotone in
  granularity;
* the shared pool never exceeds capacity while unpinned entries exist.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.blob import Blob
from repro.dedup.engines import chunk_level_dedup, file_level_dedup, layer_level_dedup
from repro.docker.builder import ImageBuilder
from repro.gear.gearfile import GearFile
from repro.gear.index import GearIndex
from repro.gear.pool import EvictionPolicy, SharedFilePool
from repro.vfs.overlay import OverlayMount
from repro.vfs.tar import LayerArchive
from repro.vfs.tree import FileSystemTree

# -- strategies ----------------------------------------------------------

_NAMES = st.sampled_from(["a", "b", "c", "dir1", "dir2", "file", "data.bin"])
_PATHS = st.builds(
    lambda parts: "/" + "/".join(parts),
    st.lists(_NAMES, min_size=1, max_size=3),
)
_CONTENT = st.binary(min_size=0, max_size=64)

_FILE_MAPS = st.dictionaries(_PATHS, _CONTENT, min_size=0, max_size=8)


def build_tree(file_map):
    tree = FileSystemTree()
    for path, content in sorted(file_map.items()):
        try:
            tree.write_file(path, content, parents=True)
        except Exception:
            # Path conflicts (a file where a dir is needed) are skipped —
            # the strategy may produce /a and /a/b.
            pass
    return tree


def tree_files(tree):
    return {
        path: node.blob.materialize() for path, node in tree.iter_files()
    }


# -- overlay vs reference model -------------------------------------------


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(_FILE_MAPS, _FILE_MAPS, st.lists(_PATHS, max_size=4))
def test_overlay_matches_reference_model(lower_map, upper_map, deletions):
    """Merged view == lower ∪ upper with upper priority, minus deletions."""
    lower = build_tree(lower_map).freeze()
    mount = OverlayMount([lower])
    model = dict(tree_files(lower))

    for path, content in sorted(upper_map.items()):
        try:
            mount.write_file(path, content, parents=True)
        except Exception:
            continue
        model[path] = content
        # Writing a file at /p shadows any model entries under /p.
        doomed = [k for k in model if k != path and k.startswith(path + "/")]
        for key in doomed:
            del model[key]
        # Parent dirs may shadow lower *files* at the same path.
        parts = path.split("/")[1:-1]
        prefix = ""
        for part in parts:
            prefix += "/" + part
            model.pop(prefix, None)

    for path in deletions:
        try:
            mount.remove(path, recursive=True)
        except Exception:
            continue
        model.pop(path, None)
        for key in [k for k in model if k.startswith(path + "/")]:
            del model[key]

    merged = {
        path: mount.read_bytes(path)
        for path, node in mount.walk("/")
        if node.is_file
    }
    assert merged == model


# -- layer archive round-trips ---------------------------------------------


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(_FILE_MAPS)
def test_archive_extract_is_identity_on_digest(file_map):
    tree = build_tree(file_map)
    archive = LayerArchive.from_tree(tree)
    assert LayerArchive.from_tree(archive.extract()).digest == archive.digest


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(_FILE_MAPS)
def test_gear_index_roundtrip_for_arbitrary_trees(file_map):
    tree = build_tree(file_map)
    index = GearIndex.from_tree("i", "v", tree)
    restored = GearIndex.from_image(index.to_image())
    assert restored.entries == index.entries
    # Every entry matches the original file's fingerprint and size.
    for path, entry in index.entries.items():
        blob = tree.read_blob(path)
        assert entry.identity == blob.fingerprint
        assert entry.size == blob.size


# -- dedup invariants ----------------------------------------------------------


@st.composite
def image_lists(draw):
    file_maps = draw(st.lists(_FILE_MAPS, min_size=1, max_size=4))
    images = []
    for index, file_map in enumerate(file_maps):
        builder = ImageBuilder(f"img{index}", "v1")
        builder.add_file("/anchor", b"shared-anchor")
        for path, content in sorted(file_map.items()):
            try:
                builder.add_file(path, content)
            except Exception:
                continue
        images.append(builder.build())
    return images


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(image_lists())
def test_dedup_order_invariance(images):
    forward = file_level_dedup(images)
    backward = file_level_dedup(list(reversed(images)))
    assert forward.object_count == backward.object_count
    assert forward.storage_bytes == backward.storage_bytes


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(image_lists())
def test_dedup_granularity_monotone(images):
    layer = layer_level_dedup(images)
    file = file_level_dedup(images)
    chunk = chunk_level_dedup(images)
    assert chunk.storage_bytes <= file.storage_bytes
    assert file.logical_bytes <= layer.logical_bytes


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(image_lists())
def test_dedup_idempotent_under_duplication(images):
    """Adding a byte-identical image changes nothing at any granularity."""
    doubled = images + [images[0]]
    assert (
        file_level_dedup(doubled).storage_bytes
        == file_level_dedup(images).storage_bytes
    )
    assert (
        layer_level_dedup(doubled).object_count
        == layer_level_dedup(images).object_count
    )


# -- pool capacity invariant -----------------------------------------------------


@settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(1, 400), st.booleans()),
        min_size=1,
        max_size=30,
    ),
    st.sampled_from([EvictionPolicy.FIFO, EvictionPolicy.LRU]),
)
def test_pool_respects_capacity_with_unpinned_entries(operations, policy):
    capacity = 1000
    pool = SharedFilePool(capacity_bytes=capacity, policy=policy)
    for tag, size, pin in operations:
        if size > capacity:
            continue
        inode = pool.insert(GearFile.from_blob(Blob.synthetic(f"t{tag}", size)))
        if pin:
            inode.nlink += 1
        # Invariant: the pool only exceeds capacity when pinned entries
        # force it to — at most the just-inserted entry may be unpinned
        # (everything else evictable was already evicted).
        if pool.used_bytes > capacity:
            unpinned = [
                identity
                for identity in list(pool.identities())
                if pool.get(identity).nlink <= 1
            ]
            assert len(unpinned) <= 1
            assert pool.stats.eviction_failures > 0


@settings(max_examples=50)
@given(st.lists(st.integers(0, 20), min_size=1, max_size=40))
def test_pool_content_addressing_is_stable(tags):
    pool = SharedFilePool()
    inodes = {}
    for tag in tags:
        gear_file = GearFile.from_blob(Blob.synthetic(f"s{tag}", 100))
        inode = pool.insert(gear_file)
        if tag in inodes:
            assert inodes[tag] is inode
        inodes[tag] = inode
    assert pool.file_count == len(set(tags))
