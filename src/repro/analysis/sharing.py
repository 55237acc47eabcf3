"""File-sharing statistics across deployments.

§V-D quantifies why the local cache works: "different containers in a
common image series access some common files during deployment and the
proportion of the common files reaches 44.4% of the total accessed
files."  This module computes that statistic — and its byte-weighted
variant — over any set of corpus images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.common.hashing import Fingerprint
from repro.workloads.corpus import GeneratedImage


@dataclass(frozen=True)
class SharingStats:
    """Common-file statistics over a deployment sequence."""

    deployments: int
    accessed_files: int
    common_files: int
    accessed_bytes: int
    common_bytes: int

    @property
    def common_file_fraction(self) -> float:
        """Fraction of accessed files already fetched by an earlier
        deployment (the paper's 44.4%)."""
        if self.accessed_files == 0:
            return 0.0
        return self.common_files / self.accessed_files


def deployment_sharing(images: Sequence[GeneratedImage]) -> SharingStats:
    """Replay the images' startup traces in order, counting repeats.

    A file is *common* when its content fingerprint was already accessed
    by an earlier deployment in the sequence — exactly the accesses a
    shared level-1 cache turns into hits.
    """
    seen: Set[Fingerprint] = set()
    accessed_files = 0
    common_files = 0
    accessed_bytes = 0
    common_bytes = 0
    for generated in images:
        tree = generated.image.flatten()
        for path, size in generated.trace.accesses:
            fingerprint = tree.read_blob(path).fingerprint
            accessed_files += 1
            accessed_bytes += size
            if fingerprint in seen:
                common_files += 1
                common_bytes += size
            else:
                seen.add(fingerprint)
    return SharingStats(
        deployments=len(images),
        accessed_files=accessed_files,
        common_files=common_files,
        accessed_bytes=accessed_bytes,
        common_bytes=common_bytes,
    )


def per_series_sharing(
    by_series: Dict[str, List[GeneratedImage]]
) -> Dict[str, SharingStats]:
    """Sharing statistics within each series' version sequence."""
    return {
        series: deployment_sharing(images)
        for series, images in by_series.items()
    }
