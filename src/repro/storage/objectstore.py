"""A content-addressed object store (the MinIO stand-in).

The Gear Registry "runs a file server to store Gear files.  A Gear file
can be found through its name (i.e., the fingerprint of the corresponding
file)" (§III-C), implemented on MinIO with three HTTP interfaces: query,
upload, download (§IV).  :class:`ObjectStore` provides those verbs over an
in-memory bucket, with byte accounting for the storage experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.errors import NotFoundError, StorageError


@dataclass(frozen=True)
class StoredObject:
    """One named object with logical and stored (compressed) sizes."""

    key: str
    size: int
    stored_size: int


class ObjectStore:
    """A flat key → object bucket with dedup-by-name semantics.

    Keys are content fingerprints, so storing the same key twice is a
    no-op (content-addressed stores never hold two copies).  ``payload``
    objects (arbitrary Python values — blobs, archives) ride along for
    functional correctness; sizes drive the storage accounting.
    """

    def __init__(self, name: str = "objects") -> None:
        self.name = name
        self._objects: Dict[str, Tuple[StoredObject, object]] = {}

    # -- the three registry verbs ---------------------------------------

    def query(self, key: str) -> bool:
        """Existence check (the registry's ``query`` interface)."""
        return key in self._objects

    def upload(
        self, key: str, payload: object, size: int, stored_size: Optional[int] = None
    ) -> bool:
        """Store an object; returns False when the key already existed."""
        if size < 0:
            raise StorageError(f"negative size for object {key!r}")
        if key in self._objects:
            return False
        record = StoredObject(
            key=key,
            size=size,
            stored_size=stored_size if stored_size is not None else size,
        )
        self._objects[key] = (record, payload)
        return True

    def download(self, key: str) -> Tuple[StoredObject, object]:
        """Fetch an object and its metadata."""
        try:
            return self._objects[key]
        except KeyError:
            raise NotFoundError(f"object not found: {key!r}") from None

    # -- management ------------------------------------------------------

    def delete(self, key: str) -> None:
        if key not in self._objects:
            raise NotFoundError(f"object not found: {key!r}")
        del self._objects[key]

    def stat(self, key: str) -> StoredObject:
        return self.download(key)[0]

    @property
    def object_count(self) -> int:
        return len(self._objects)

    @property
    def total_stored_size(self) -> int:
        """Sum of on-disk (possibly compressed) object sizes."""
        return sum(record.stored_size for record, _ in self._objects.values())

    def __len__(self) -> int:
        return len(self._objects)

    def __repr__(self) -> str:
        return (
            f"ObjectStore({self.name!r}, objects={len(self._objects)}, "
            f"stored={self.total_stored_size})"
        )
