"""Container objects and lifecycle."""

from __future__ import annotations

import enum
import itertools
from typing import Optional

from repro.common.errors import ReproError
from repro.docker.image import Image, ImageConfig
from repro.vfs.overlay import OverlayMount

_container_ids = itertools.count(1)


class ContainerState(enum.Enum):
    """Lifecycle states a container moves through."""

    CREATED = "created"
    RUNNING = "running"
    STOPPED = "stopped"
    DELETED = "deleted"


class Container:
    """A running (or runnable) instance of an image.

    Holds the union mount providing its root filesystem and the image
    config (env, entrypoint) its process would see.  Workload task models
    drive file accesses through :attr:`mount`.
    """

    def __init__(self, image: Image, mount: OverlayMount) -> None:
        self.id = f"ctr-{next(_container_ids):06d}"
        self.image = image
        self.mount = mount
        self.state = ContainerState.CREATED

    @property
    def config(self) -> ImageConfig:
        return self.image.config

    def start(self) -> None:
        if self.state not in (ContainerState.CREATED, ContainerState.STOPPED):
            raise ReproError(f"cannot start container in state {self.state.value}")
        self.state = ContainerState.RUNNING

    def stop(self) -> None:
        if self.state is not ContainerState.RUNNING:
            raise ReproError(f"cannot stop container in state {self.state.value}")
        self.state = ContainerState.STOPPED

    def delete(self) -> None:
        if self.state is ContainerState.RUNNING:
            raise ReproError("stop the container before deleting it")
        self.state = ContainerState.DELETED

    def __repr__(self) -> str:
        return f"Container({self.id}, {self.image.reference!r}, {self.state.value})"
