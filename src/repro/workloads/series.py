"""The Table I catalog: 50 image series in six categories.

Per-category :class:`CategoryProfile` knobs encode the paper's qualitative
findings (§V-C): Linux Distro and Language series are *base images* whose
updates change most of their data (hence low file-level savings, 20.5%
and 32.8%), while application categories change mostly application data
between versions (savings 46.7%–60.9%).  The numeric values were
calibrated (seed 7) against Table II, Fig. 2, Fig. 7 and Fig. 8; see
EXPERIMENTS.md for paper-vs-measured.

Scaling note: real images hold tens of thousands of mostly-small files;
generating that many Python objects per image would make every benchmark
minutes-long for no fidelity gain.  The corpus therefore uses ~40× fewer
files that are ~40× larger, keeping image *byte* sizes realistic
(hundreds of MB).  Per-file cost constants elsewhere (disk metadata ops,
per-request network overhead) are calibrated against the paper's measured
times at this file-count scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Category display order used across figures.
CATEGORIES: Tuple[str, ...] = (
    "Linux Distro",
    "Language",
    "Database",
    "Web Component",
    "Application Platform",
    "Others",
)


@dataclass(frozen=True)
class CategoryProfile:
    """Generation knobs for one category of image series."""

    #: Number of application-payload files (before corpus scaling).
    app_files: int
    #: Median application file size in bytes (lognormal).
    app_file_median: int
    #: Lognormal sigma for file sizes (heavier tail = bigger files).
    app_sigma: float
    #: Fraction of app files replaced between consecutive versions.
    app_churn: float
    #: Fraction of a changed file's chunks that actually differ (drives
    #: the file-level vs chunk-level dedup gap in Table II).
    chunk_churn: float
    #: Fraction of app files newly added per version.
    add_rate: float
    #: Files and median size of the series' own runtime layer (unused
    #: when the series borrows a Language series' runtime).
    runtime_files: int
    runtime_median: int
    #: Versions between runtime-layer refreshes (1 = every version).
    runtime_refresh: int
    #: Target fraction of runtime+app bytes accessed at startup
    #: (necessary data; remote-image literature reports 6.4%–33%, §II-D).
    necessary_byte_frac: float
    #: Of the necessary bytes, the fraction drawn from version-stable
    #: content (libs/config) rather than per-version binaries.  Higher
    #: values mean more cross-version redundancy in Fig. 2.
    necessary_stable_frac: float
    #: Seconds of task compute during the container's startup task (§V-D
    #: tasks: echo hello, compile-and-run, CRUD, serve a request, …).
    task_compute_s: float


#: Calibrated per-category profiles.
CATEGORY_PROFILES: Dict[str, CategoryProfile] = {
    "Linux Distro": CategoryProfile(
        app_files=150,
        app_file_median=160_000,
        app_sigma=1.7,
        app_churn=0.74,
        chunk_churn=0.90,
        add_rate=0.02,
        runtime_files=0,
        runtime_median=0,
        runtime_refresh=1,
        necessary_byte_frac=0.30,
        necessary_stable_frac=0.35,
        task_compute_s=0.15,
    ),
    "Language": CategoryProfile(
        app_files=30,
        app_file_median=60_000,
        app_sigma=1.6,
        app_churn=0.47,
        chunk_churn=0.90,
        add_rate=0.03,
        runtime_files=260,
        runtime_median=180_000,
        runtime_refresh=1,
        necessary_byte_frac=0.32,
        necessary_stable_frac=0.25,
        task_compute_s=0.9,
    ),
    "Database": CategoryProfile(
        app_files=320,
        app_file_median=150_000,
        app_sigma=1.9,
        app_churn=0.24,
        chunk_churn=0.85,
        add_rate=0.03,
        runtime_files=140,
        runtime_median=120_000,
        runtime_refresh=5,
        necessary_byte_frac=0.38,
        necessary_stable_frac=0.58,
        task_compute_s=1.6,
    ),
    "Web Component": CategoryProfile(
        app_files=240,
        app_file_median=120_000,
        app_sigma=1.8,
        app_churn=0.125,
        chunk_churn=0.85,
        add_rate=0.02,
        runtime_files=120,
        runtime_median=100_000,
        runtime_refresh=5,
        necessary_byte_frac=0.30,
        necessary_stable_frac=0.10,
        task_compute_s=1.0,
    ),
    "Application Platform": CategoryProfile(
        app_files=380,
        app_file_median=130_000,
        app_sigma=1.8,
        app_churn=0.135,
        chunk_churn=0.85,
        add_rate=0.04,
        runtime_files=150,
        runtime_median=110_000,
        runtime_refresh=4,
        necessary_byte_frac=0.34,
        necessary_stable_frac=0.50,
        task_compute_s=2.0,
    ),
    "Others": CategoryProfile(
        app_files=200,
        app_file_median=110_000,
        app_sigma=1.8,
        app_churn=0.20,
        chunk_churn=0.85,
        add_rate=0.03,
        runtime_files=100,
        runtime_median=90_000,
        runtime_refresh=4,
        necessary_byte_frac=0.32,
        necessary_stable_frac=0.15,
        task_compute_s=0.8,
    ),
}


@dataclass(frozen=True)
class SeriesSpec:
    """One image series (a name plus its version count and lineage)."""

    name: str
    category: str
    versions: int
    #: Distro series whose image supplies the base layers ("" for distro
    #: series themselves).
    base_distro: str

    @property
    def profile(self) -> CategoryProfile:
        return CATEGORY_PROFILES[self.category]

    def tags(self) -> List[str]:
        """Version tags, oldest first (``v1`` .. ``vN``)."""
        return [f"v{i + 1}" for i in range(self.versions)]


def _spec(name: str, category: str, base: str, versions: int = 20) -> SeriesSpec:
    return SeriesSpec(name=name, category=category, versions=versions, base_distro=base)


#: Table I, with the paper's version-count exceptions: hello-world,
#: centos, and eclipse-mosquitto "have fewer than 20 versions"; the
#: counts below make the corpus total exactly 971 images.
SERIES: Tuple[SeriesSpec, ...] = (
    # Linux Distro (6) — their own bases.
    _spec("alpine", "Linux Distro", ""),
    _spec("amazonlinux", "Linux Distro", ""),
    _spec("busybox", "Linux Distro", ""),
    _spec("centos", "Linux Distro", "", versions=12),
    _spec("debian", "Linux Distro", ""),
    _spec("ubuntu", "Linux Distro", ""),
    # Language (6).
    _spec("golang", "Language", "debian"),
    _spec("java", "Language", "debian"),
    _spec("openjdk", "Language", "debian"),
    _spec("php", "Language", "debian"),
    _spec("python", "Language", "debian"),
    _spec("ruby", "Language", "debian"),
    # Database (11).
    _spec("cassandra", "Database", "debian"),
    _spec("couchbase", "Database", "ubuntu"),
    _spec("crate", "Database", "centos"),
    _spec("elasticsearch", "Database", "centos"),
    _spec("influxdb", "Database", "debian"),
    _spec("mariadb", "Database", "ubuntu"),
    _spec("memcached", "Database", "debian"),
    _spec("mongo", "Database", "ubuntu"),
    _spec("mysql", "Database", "debian"),
    _spec("postgres", "Database", "debian"),
    _spec("redis", "Database", "debian"),
    # Web Component (11).
    _spec("consul", "Web Component", "alpine"),
    _spec("eclipse-mosquitto", "Web Component", "alpine", versions=16),
    _spec("haproxy", "Web Component", "debian"),
    _spec("httpd", "Web Component", "debian"),
    _spec("kibana", "Web Component", "centos"),
    _spec("kong", "Web Component", "alpine"),
    _spec("nginx", "Web Component", "debian"),
    _spec("node", "Web Component", "debian"),
    _spec("telegraf", "Web Component", "alpine"),
    _spec("tomcat", "Web Component", "debian"),
    _spec("traefik", "Web Component", "alpine"),
    # Application Platform (8).
    _spec("drupal", "Application Platform", "debian"),
    _spec("ghost", "Application Platform", "debian"),
    _spec("jenkins", "Application Platform", "debian"),
    _spec("nextcloud", "Application Platform", "debian"),
    _spec("rabbitmq", "Application Platform", "ubuntu"),
    _spec("solr", "Application Platform", "debian"),
    _spec("sonarqube", "Application Platform", "alpine"),
    _spec("wordpress", "Application Platform", "debian"),
    # Others (8).
    _spec("chronograf", "Others", "alpine"),
    _spec("docker", "Others", "alpine"),
    _spec("gradle", "Others", "debian"),
    _spec("hello-world", "Others", "busybox", versions=3),
    _spec("logstash", "Others", "centos"),
    _spec("maven", "Others", "debian"),
    _spec("registry", "Others", "alpine"),
    _spec("vault", "Others", "alpine"),
)

#: App series that reuse a Language series' runtime payload: the same
#: *file contents* end up inside a layer built independently per series
#: (real images install the same JRE/PHP packages in different builds),
#: so the layers' digests differ while the files dedup — the core gap
#: between layer-level and file-level sharing the paper exploits.
RUNTIME_SOURCE: Dict[str, str] = {
    "tomcat": "java",
    "jenkins": "openjdk",
    "solr": "openjdk",
    "sonarqube": "openjdk",
    "cassandra": "openjdk",
    "elasticsearch": "openjdk",
    "logstash": "openjdk",
    "gradle": "openjdk",
    "maven": "openjdk",
    "crate": "openjdk",
    "drupal": "php",
    "wordpress": "php",
    "nextcloud": "php",
}

