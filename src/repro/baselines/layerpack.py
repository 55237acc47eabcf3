"""A layer-restructuring baseline (greedy overlap maximization).

§VI-A: Skourtis et al. "argue that Docker image layers in the registry
should be reorganized to maximize their overlap and reduce storage
consumption … [with] a greedy algorithm."  The idea: instead of storing
each image's historical layers, regroup the corpus's *files* into a
small set of shared layers such that images are expressible as unions of
those layers, deduplicating common content at layer granularity.

This module implements a faithful simplification of that greedy scheme:

1. every unique file (by fingerprint) is annotated with the set of
   images containing it;
2. files with identical image-sets are grouped — each group becomes one
   synthesized layer (content shared by exactly those images);
3. groups smaller than ``min_layer_bytes`` are folded into per-image
   residual layers (real systems cap layer-count per image; unbounded
   grouping would explode the layer count).

The result keeps Docker's pull model (whole layers travel) while closing
much of the storage gap to file-level dedup — at the cost of a rebuild
whenever the corpus changes, which is the flexibility argument the Gear
paper makes against restructuring approaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.blob.compressibility import blob_compressed_size
from repro.docker.image import Image


@dataclass(frozen=True)
class PackedLayout:
    """Outcome of restructuring a corpus into shared layers."""

    shared_layer_count: int
    residual_layer_count: int
    stored_bytes: int
    #: Per-image layer counts after packing (pull-path complexity).
    layers_per_image: Tuple[int, ...]
    #: Compressed bytes a cold client downloads for each image (all the
    #: packed layers that image references).
    bytes_per_image: Tuple[int, ...]

    @property
    def mean_layers_per_image(self) -> float:
        if not self.layers_per_image:
            return 0.0
        return sum(self.layers_per_image) / len(self.layers_per_image)


def pack_layers(
    images: Sequence[Image],
    *,
    min_layer_bytes: int = 4 * 1024 * 1024,
) -> PackedLayout:
    """Greedily regroup corpus files into maximally-shared layers."""
    if min_layer_bytes <= 0:
        raise ValueError("min_layer_bytes must be positive")

    # 1. fingerprint → (compressed size, set of image indices).
    occupancy: Dict[str, Tuple[int, set]] = {}
    for index, image in enumerate(images):
        tree = image.flatten()
        for _, node in tree.iter_files():
            assert node.blob is not None
            fingerprint = node.blob.fingerprint
            record = occupancy.get(fingerprint)
            if record is None:
                occupancy[fingerprint] = (
                    blob_compressed_size(node.blob),
                    {index},
                )
            else:
                record[1].add(index)

    # 2. group by identical image-set.
    groups: Dict[FrozenSet[int], int] = {}
    for compressed, members in occupancy.values():
        key = frozenset(members)
        groups[key] = groups.get(key, 0) + compressed

    shared_layers = 0
    residual_bytes_per_image: Dict[int, int] = {}
    stored = 0
    image_layer_counts: Dict[int, int] = {i: 0 for i in range(len(images))}
    image_bytes: Dict[int, int] = {i: 0 for i in range(len(images))}
    for members, group_bytes in groups.items():
        if group_bytes >= min_layer_bytes and len(members) > 1:
            # One shared layer serving every member image.
            shared_layers += 1
            stored += group_bytes
            for member in members:
                image_layer_counts[member] += 1
                image_bytes[member] += group_bytes
        else:
            # Folded into each member's residual layer.  Content shared
            # by the group's members is *duplicated* into each residual —
            # the granularity loss restructuring cannot avoid.
            for member in members:
                residual_bytes_per_image[member] = (
                    residual_bytes_per_image.get(member, 0) + group_bytes
                )

    residual_layers = 0
    for index, residual in residual_bytes_per_image.items():
        if residual > 0:
            residual_layers += 1
            stored += residual
            image_layer_counts[index] += 1
            image_bytes[index] += residual

    return PackedLayout(
        shared_layer_count=shared_layers,
        residual_layer_count=residual_layers,
        stored_bytes=stored,
        layers_per_image=tuple(
            image_layer_counts[i] for i in range(len(images))
        ),
        bytes_per_image=tuple(image_bytes[i] for i in range(len(images))),
    )
