"""Deterministic synthetic image corpus (the Table I stand-in).

Generation model
----------------
* **Distro series** are single-layer base images whose whole payload
  churns heavily between versions (base-image refreshes change most
  files, §V-C).
* **Language series** stack a runtime layer (their payload) on a distro
  base pinned to 5-version epochs; the runtime churns every version.
* **Application series** stack runtime + app + config layers on a distro
  base.  The runtime refreshes only every few versions and may be
  *borrowed* from a Language series (same file contents, independently
  built layer — dedupable at file level, not at layer level).  The app
  payload churns at the category's rate; configs are small and volatile.
* Every file carries a **volatility** score; per-version churn rolls are
  deterministic functions of (series, path, version), so a stable file
  survives many versions while a volatile one changes almost every
  version.  Necessary-file selection mixes stable and volatile files to
  hit the category's Fig. 2 redundancy target.
* Changed files share ``1 - chunk_churn`` of their chunks with their
  predecessor, producing the file-vs-chunk dedup gap of Table II.

Everything is a pure function of ``CorpusConfig.seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.blob import Blob
from repro.common.errors import NotFoundError, ReproError
from repro.common.rng import bounded_lognormal, rng_for
from repro.docker.image import Image, ImageConfig, Layer
from repro.vfs.inode import Metadata
from repro.vfs.tar import LayerArchive
from repro.vfs.tree import FileSystemTree
from repro.workloads.access import AccessTrace
from repro.workloads.series import (
    CATEGORIES,
    RUNTIME_SOURCE,
    SERIES,
    SeriesSpec,
)

#: App images pin their distro base to epochs of this many versions.
BASE_EPOCH = 5

#: Byte fraction of the distro base touched at startup (shell, libc, …).
BASE_NECESSARY_FRAC = 0.06

#: Files in the top volatility band are "release binaries": they change
#: on (almost) every version regardless of the category's average churn,
#: which is what keeps the necessary data of low-churn series from being
#: fully redundant across versions (Fig. 2).
RELEASE_BINARY_VOLATILITY = 0.80
RELEASE_BINARY_CHURN_BOOST = 0.70

#: Role layout per file index (10% executables, 50% libraries,
#: 10% config, 30% data) — container images are library-heavy.
_ROLES = ("bin", "lib", "lib", "lib", "lib", "lib", "config", "data", "data", "data")

_ROLE_MODE = {"bin": 0o755, "lib": 0o644, "config": 0o644, "data": 0o644}

#: Trace ordering: configs are parsed first, then executables load,
#: then libraries, then data.
_ROLE_ORDER = {"config": 0, "bin": 1, "lib": 2, "data": 3}


@dataclass(frozen=True)
class CorpusConfig:
    """Corpus generation parameters."""

    seed: int = 7
    #: Multiplier on per-group file counts (tests use ~0.1).
    file_scale: float = 1.0
    #: Multiplier on file sizes.
    size_scale: float = 1.0
    #: Restrict generation to these series names (None = full Table I).
    series_names: Optional[Tuple[str, ...]] = None
    #: Cap on versions per series (None = the catalog's counts).
    versions_cap: Optional[int] = None

    def selected_series(self) -> List[SeriesSpec]:
        specs = list(SERIES)
        if self.series_names is not None:
            wanted = set(self.series_names)
            unknown = wanted - {spec.name for spec in specs}
            if unknown:
                raise ReproError(f"unknown series: {sorted(unknown)}")
            # Always include the distro bases the selection depends on,
            # and any borrowed runtime's language series.
            needed = set(wanted)
            for spec in specs:
                if spec.name in wanted:
                    if spec.base_distro:
                        needed.add(spec.base_distro)
                    source = RUNTIME_SOURCE.get(spec.name)
                    if source is not None:
                        needed.add(source)
                        needed.add(next(
                            s.base_distro for s in specs if s.name == source
                        ) or spec.base_distro)
            specs = [spec for spec in specs if spec.name in needed]
        if self.versions_cap is not None:
            specs = [
                SeriesSpec(
                    name=spec.name,
                    category=spec.category,
                    versions=min(spec.versions, self.versions_cap),
                    base_distro=spec.base_distro,
                )
                for spec in specs
            ]
        return specs


@dataclass
class GeneratedImage:
    """One corpus image plus its startup trace."""

    spec: SeriesSpec
    tag: str
    image: Image
    trace: AccessTrace
    #: Zero-based version position within the series.
    tag_index: int = 0

    @property
    def reference(self) -> str:
        return self.image.reference

    @property
    def gear_reference(self) -> str:
        """The reference the converter publishes this image's index under."""
        return f"{self.image.name}.gear:{self.image.tag}"

    @property
    def category(self) -> str:
        return self.spec.category


class Corpus:
    """The generated image corpus with lookup helpers."""

    def __init__(self, config: CorpusConfig, images: List[GeneratedImage]) -> None:
        self.config = config
        self.images = images
        self.by_series: Dict[str, List[GeneratedImage]] = {}
        self._by_reference: Dict[str, GeneratedImage] = {}
        for generated in images:
            self.by_series.setdefault(generated.spec.name, []).append(generated)
            self._by_reference[generated.reference] = generated

    def get(self, reference: str) -> GeneratedImage:
        try:
            return self._by_reference[reference]
        except KeyError:
            raise NotFoundError(f"corpus has no image {reference!r}") from None

    def references(self) -> List[str]:
        return [generated.reference for generated in self.images]

    def docker_images(self) -> List[Image]:
        return [generated.image for generated in self.images]

    def by_category(self) -> Dict[str, List[GeneratedImage]]:
        grouped: Dict[str, List[GeneratedImage]] = {c: [] for c in CATEGORIES}
        for generated in self.images:
            grouped[generated.category].append(generated)
        return {c: lst for c, lst in grouped.items() if lst}

    @property
    def image_count(self) -> int:
        return len(self.images)

    @property
    def total_uncompressed_bytes(self) -> int:
        return sum(g.image.uncompressed_size for g in self.images)

    def __repr__(self) -> str:
        return (
            f"Corpus(images={len(self.images)}, series={len(self.by_series)}, "
            f"bytes={self.total_uncompressed_bytes})"
        )


class _FileSet:
    """An evolving group of files (one logical layer's content)."""

    __slots__ = ("ns", "prefix", "files", "volatility", "role", "_next_index")

    def __init__(self, ns: str, prefix: str) -> None:
        self.ns = ns
        self.prefix = prefix
        self.files: Dict[str, Blob] = {}
        self.volatility: Dict[str, float] = {}
        self.role: Dict[str, str] = {}
        self._next_index = 0

    def populate(self, count: int, median: int, sigma: float) -> None:
        rng = rng_for(self.ns, "populate")
        for _ in range(count):
            self._add_file(rng, median, sigma, version=0)

    def _add_file(self, rng, median: int, sigma: float, version: int) -> str:
        index = self._next_index
        self._next_index += 1
        role = _ROLES[index % len(_ROLES)]
        ext = {"bin": "", "lib": ".so", "config": ".conf", "data": ".dat"}[role]
        path = f"{self.prefix}/d{index % 7}/f{index:05d}{ext}"
        size = int(bounded_lognormal(rng, median, sigma, 256, 24_000_000))
        self.files[path] = Blob.synthetic(f"{self.ns}/{path}/v{version}", size)
        self.volatility[path] = rng.random()
        self.role[path] = role
        return path

    def evolve(
        self,
        version: int,
        *,
        churn: float,
        chunk_churn: float,
        add_rate: float,
        median: int,
        sigma: float,
        remove_rate: float = 0.01,
    ) -> None:
        """Advance the group one version."""
        from repro.common.hashing import stable_unit_interval

        rng = rng_for(self.ns, "evolve", str(version))
        doomed: List[str] = []
        for path in list(self.files):
            roll = stable_unit_interval(self.ns, "roll", path, str(version))
            vol = self.volatility[path]
            # Per-file churn probability: every file has at least half the
            # category rate (releases touch broadly), scaled up with
            # volatility, with the release-binary band near-certain.
            churn_p = churn * (0.5 + 1.5 * vol)
            if vol > RELEASE_BINARY_VOLATILITY:
                churn_p += RELEASE_BINARY_CHURN_BOOST
            churn_p = min(0.98, churn_p)
            if roll < remove_rate * self.volatility[path]:
                doomed.append(path)
            elif roll < churn_p:
                self.files[path] = self.files[path].mutate(
                    f"{self.ns}/{path}/v{version}", chunk_churn
                )
        for path in doomed:
            del self.files[path]
            del self.volatility[path]
            del self.role[path]
        for _ in range(max(0, round(add_rate * max(1, len(self.files))))):
            self._add_file(rng, median, sigma, version=version)

    def total_bytes(self) -> int:
        return sum(blob.size for blob in self.files.values())

    def snapshot(self) -> "_FileSet":
        copy = _FileSet(self.ns, self.prefix)
        copy.files = dict(self.files)
        copy.volatility = dict(self.volatility)
        copy.role = dict(self.role)
        copy._next_index = self._next_index
        return copy


def _layer_from_filesets(filesets: Sequence[_FileSet]) -> Layer:
    tree = FileSystemTree()
    for fileset in filesets:
        for path, blob in fileset.files.items():
            mode = _ROLE_MODE[fileset.role[path]]
            tree.write_file(path, blob, meta=Metadata(mode=mode), parents=True)
    return Layer(LayerArchive.from_tree(tree))


def _select_necessary(
    fileset: _FileSet,
    *,
    byte_frac: float,
    stable_frac: float,
) -> List[Tuple[str, int]]:
    """Pick the startup-necessary files of one group.

    Takes ``stable_frac`` of the byte budget from low-volatility files
    (version-stable libraries and configs) and the remainder from
    high-volatility files (the per-version binaries a new release always
    replaces).  Selection order is deterministic by volatility rank, so
    the necessary set is consistent across versions wherever the
    underlying files survive.
    """
    budget = byte_frac * fileset.total_bytes()
    stable = sorted(
        (p for p, v in fileset.volatility.items() if v < 0.5),
        key=lambda p: (fileset.volatility[p], p),
    )
    volatile = sorted(
        (p for p, v in fileset.volatility.items() if v >= 0.5),
        key=lambda p: (-fileset.volatility[p], p),
    )
    picked: List[Tuple[str, int]] = []
    taken = 0.0

    def _take(pool: List[str], limit: float) -> None:
        nonlocal taken
        for path in pool:
            if taken >= limit:
                return
            size = fileset.files[path].size
            picked.append((path, size))
            taken += size

    _take(stable, stable_frac * budget)
    _take(volatile, budget)
    return picked


def _order_trace(
    selections: Sequence[Tuple[_FileSet, List[Tuple[str, int]]]],
) -> List[Tuple[str, int]]:
    ordered: List[Tuple[str, int]] = []
    tagged: List[Tuple[int, str, int]] = []
    for fileset, picks in selections:
        for path, size in picks:
            tagged.append((_ROLE_ORDER[fileset.role[path]], path, size))
    tagged.sort()
    for _, path, size in tagged:
        ordered.append((path, size))
    return ordered


class CorpusBuilder:
    """Generates the corpus from a :class:`CorpusConfig`."""

    def __init__(self, config: Optional[CorpusConfig] = None) -> None:
        self.config = config if config is not None else CorpusConfig()
        self._distro_images: Dict[str, List[Image]] = {}
        self._distro_filesets: Dict[str, List[_FileSet]] = {}
        self._lang_runtime: Dict[str, List[_FileSet]] = {}

    # -- public -----------------------------------------------------------

    def build(self) -> Corpus:
        specs = self.config.selected_series()
        generated: List[GeneratedImage] = []
        # Distros first (bases), then languages (runtime sources), then
        # the application categories.
        for spec in specs:
            if spec.category == "Linux Distro":
                generated.extend(self._build_distro_series(spec))
        for spec in specs:
            if spec.category == "Language":
                generated.extend(self._build_language_series(spec))
        for spec in specs:
            if spec.category not in ("Linux Distro", "Language"):
                generated.extend(self._build_app_series(spec))
        # Catalog (Table I) ordering for reports.
        order = {spec.name: i for i, spec in enumerate(SERIES)}
        generated.sort(key=lambda g: (order[g.spec.name], g.tag_index))
        return Corpus(self.config, generated)

    # -- per-category builders ------------------------------------------------

    def _scaled(self, count: int) -> int:
        return max(3, round(count * self.config.file_scale))

    def _sized(self, median: int) -> int:
        return max(256, round(median * self.config.size_scale))

    def _build_distro_series(self, spec: SeriesSpec) -> List[GeneratedImage]:
        profile = spec.profile
        ns = f"c{self.config.seed}/{spec.name}"
        base = _FileSet(f"{ns}/base", "/usr")
        base.populate(
            self._scaled(profile.app_files),
            self._sized(profile.app_file_median),
            profile.app_sigma,
        )
        images: List[GeneratedImage] = []
        filesets: List[_FileSet] = []
        for v, tag in enumerate(spec.tags()):
            if v > 0:
                base.evolve(
                    v,
                    churn=profile.app_churn,
                    chunk_churn=profile.chunk_churn,
                    add_rate=profile.add_rate,
                    median=self._sized(profile.app_file_median),
                    sigma=profile.app_sigma,
                )
            layer = _layer_from_filesets([base])
            config = ImageConfig.make(
                env={"PATH": "/usr/bin", "DISTRO": spec.name, "VERSION": tag},
                cmd=("/bin/sh", "-c", "echo hello"),
            )
            image = Image(spec.name, tag, [layer], config)
            snapshot = base.snapshot()
            filesets.append(snapshot)
            trace = self._trace_for(
                spec, tag, v,
                [(snapshot, _select_necessary(
                    snapshot,
                    byte_frac=profile.necessary_byte_frac,
                    stable_frac=profile.necessary_stable_frac,
                ))],
            )
            images.append(_generated(spec, v, tag, image, trace))
        self._distro_images[spec.name] = [g.image for g in images]
        self._distro_filesets[spec.name] = filesets
        return images

    def _build_language_series(self, spec: SeriesSpec) -> List[GeneratedImage]:
        profile = spec.profile
        ns = f"c{self.config.seed}/{spec.name}"
        runtime = _FileSet(f"{ns}/runtime", f"/usr/local/{spec.name}")
        runtime.populate(
            self._scaled(profile.runtime_files),
            self._sized(profile.runtime_median),
            profile.app_sigma,
        )
        app = _FileSet(f"{ns}/app", f"/opt/{spec.name}")
        app.populate(
            self._scaled(profile.app_files),
            self._sized(profile.app_file_median),
            profile.app_sigma,
        )
        images: List[GeneratedImage] = []
        snapshots: List[_FileSet] = []
        for v, tag in enumerate(spec.tags()):
            if v > 0:
                runtime.evolve(
                    v,
                    churn=profile.app_churn,
                    chunk_churn=profile.chunk_churn,
                    add_rate=profile.add_rate,
                    median=self._sized(profile.runtime_median),
                    sigma=profile.app_sigma,
                )
                app.evolve(
                    v,
                    churn=profile.app_churn,
                    chunk_churn=profile.chunk_churn,
                    add_rate=profile.add_rate,
                    median=self._sized(profile.app_file_median),
                    sigma=profile.app_sigma,
                )
            base_image = self._base_image(spec, v)
            layers = list(base_image.layers)
            layers.append(_layer_from_filesets([runtime]))
            layers.append(_layer_from_filesets([app]))
            config = ImageConfig.make(
                env={
                    "PATH": f"/usr/local/{spec.name}/bin:/usr/bin",
                    "LANG_RUNTIME": spec.name,
                    "VERSION": tag,
                },
                cmd=(f"/usr/local/{spec.name}/bin/run", "hello"),
            )
            image = Image(spec.name, tag, layers, config)
            runtime_snapshot = runtime.snapshot()
            snapshots.append(runtime_snapshot)
            app_snapshot = app.snapshot()
            selections = [
                self._base_selection(spec, v),
                (runtime_snapshot, _select_necessary(
                    runtime_snapshot,
                    byte_frac=profile.necessary_byte_frac,
                    stable_frac=profile.necessary_stable_frac,
                )),
                (app_snapshot, _select_necessary(
                    app_snapshot,
                    byte_frac=profile.necessary_byte_frac,
                    stable_frac=profile.necessary_stable_frac,
                )),
            ]
            trace = self._trace_for(spec, tag, v, selections)
            images.append(_generated(spec, v, tag, image, trace))
        self._lang_runtime[spec.name] = snapshots
        return images

    def _build_app_series(self, spec: SeriesSpec) -> List[GeneratedImage]:
        profile = spec.profile
        ns = f"c{self.config.seed}/{spec.name}"
        source = RUNTIME_SOURCE.get(spec.name)
        own_runtime: Optional[_FileSet] = None
        extras: Optional[_FileSet] = None
        if source is None:
            own_runtime = _FileSet(f"{ns}/runtime", f"/usr/lib/{spec.name}")
            own_runtime.populate(
                self._scaled(profile.runtime_files),
                self._sized(profile.runtime_median),
                profile.app_sigma,
            )
        else:
            # A few build-specific files so the borrowed runtime layer's
            # digest differs from the language series' own layer.
            extras = _FileSet(f"{ns}/runtime-extras", f"/usr/local/extras/{spec.name}")
            extras.populate(3, self._sized(8_000), 1.0)
        app = _FileSet(f"{ns}/app", f"/opt/{spec.name}")
        app.populate(
            self._scaled(profile.app_files),
            self._sized(profile.app_file_median),
            profile.app_sigma,
        )
        config_group = _FileSet(f"{ns}/config", f"/etc/{spec.name}")
        config_group.populate(self._scaled(12), self._sized(2_000), 1.0)

        images: List[GeneratedImage] = []
        for v, tag in enumerate(spec.tags()):
            refresh = profile.runtime_refresh
            if v > 0:
                app.evolve(
                    v,
                    churn=profile.app_churn,
                    chunk_churn=profile.chunk_churn,
                    add_rate=profile.add_rate,
                    median=self._sized(profile.app_file_median),
                    sigma=profile.app_sigma,
                )
                config_group.evolve(
                    v,
                    churn=0.85,
                    chunk_churn=0.9,
                    add_rate=0.02,
                    median=self._sized(2_000),
                    sigma=1.0,
                    remove_rate=0.0,
                )
                if own_runtime is not None and v % refresh == 0:
                    own_runtime.evolve(
                        v,
                        churn=0.35,
                        chunk_churn=profile.chunk_churn,
                        add_rate=profile.add_rate,
                        median=self._sized(profile.runtime_median),
                        sigma=profile.app_sigma,
                    )
            runtime_fs = self._runtime_fileset(spec, v, own_runtime, source)
            base_image = self._base_image(spec, v)
            layers = list(base_image.layers)
            runtime_sets = [runtime_fs] if extras is None else [runtime_fs, extras]
            layers.append(_layer_from_filesets(runtime_sets))
            layers.append(_layer_from_filesets([app]))
            layers.append(_layer_from_filesets([config_group]))
            config = ImageConfig.make(
                env={
                    "PATH": f"/opt/{spec.name}/bin:/usr/bin",
                    "APP": spec.name,
                    "VERSION": tag,
                },
                entrypoint=(f"/opt/{spec.name}/bin/start",),
                workdir=f"/opt/{spec.name}",
            )
            image = Image(spec.name, tag, layers, config)
            runtime_snapshot = runtime_fs.snapshot()
            app_snapshot = app.snapshot()
            config_snapshot = config_group.snapshot()
            selections = [
                self._base_selection(spec, v),
                (runtime_snapshot, _select_necessary(
                    runtime_snapshot,
                    byte_frac=profile.necessary_byte_frac,
                    stable_frac=profile.necessary_stable_frac,
                )),
                (app_snapshot, _select_necessary(
                    app_snapshot,
                    byte_frac=profile.necessary_byte_frac,
                    stable_frac=profile.necessary_stable_frac,
                )),
                (config_snapshot, [
                    (p, b.size) for p, b in sorted(config_snapshot.files.items())
                ]),
            ]
            trace = self._trace_for(spec, tag, v, selections)
            images.append(_generated(spec, v, tag, image, trace))
        return images

    # -- shared helpers -----------------------------------------------------------

    def _base_image(self, spec: SeriesSpec, version: int) -> Image:
        distro = self._distro_images.get(spec.base_distro)
        if distro is None:
            raise ReproError(
                f"{spec.name!r} requires base distro {spec.base_distro!r}, "
                f"which is not in the configured corpus"
            )
        epoch = min((version // BASE_EPOCH) * BASE_EPOCH, len(distro) - 1)
        return distro[epoch]

    def _base_fileset(self, spec: SeriesSpec, version: int) -> _FileSet:
        filesets = self._distro_filesets[spec.base_distro]
        epoch = min((version // BASE_EPOCH) * BASE_EPOCH, len(filesets) - 1)
        return filesets[epoch]

    def _base_selection(
        self, spec: SeriesSpec, version: int
    ) -> Tuple[_FileSet, List[Tuple[str, int]]]:
        base = self._base_fileset(spec, version)
        return base, _select_necessary(
            base, byte_frac=BASE_NECESSARY_FRAC, stable_frac=0.6
        )

    def _runtime_fileset(
        self,
        spec: SeriesSpec,
        version: int,
        own_runtime: Optional[_FileSet],
        source: Optional[str],
    ) -> _FileSet:
        if own_runtime is not None:
            return own_runtime
        assert source is not None
        snapshots = self._lang_runtime.get(source)
        if snapshots is None:
            raise ReproError(
                f"{spec.name!r} borrows runtime from {source!r}, which is "
                f"not in the configured corpus"
            )
        refresh = spec.profile.runtime_refresh
        epoch = min((version // refresh) * refresh, len(snapshots) - 1)
        return snapshots[epoch]

    def _trace_for(
        self,
        spec: SeriesSpec,
        tag: str,
        version: int,
        selections: Sequence[Tuple[_FileSet, List[Tuple[str, int]]]],
    ) -> AccessTrace:
        rng = rng_for(f"c{self.config.seed}/{spec.name}", "task", str(version))
        compute = spec.profile.task_compute_s * (0.9 + 0.2 * rng.random())
        return AccessTrace(
            reference=f"{spec.name}:{tag}",
            accesses=tuple(_order_trace(selections)),
            compute_s=compute,
        )


def _generated(
    spec: SeriesSpec, version: int, tag: str, image: Image, trace: AccessTrace
) -> GeneratedImage:
    return GeneratedImage(
        spec=spec, tag=tag, image=image, trace=trace, tag_index=version
    )
