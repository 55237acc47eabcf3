"""Workloads: the Table I image catalog, synthetic corpus, and tasks.

The paper evaluates on the top-50 most popular Docker Hub image series
(971 images, Table I).  Those images cannot be downloaded here, so
:mod:`repro.workloads.corpus` synthesizes a corpus with the same
*structure*: 50 series in six categories, ~20 versions each, shared
distro bases, per-category version churn, and per-image startup traces.
Generation is fully deterministic in the seed.
"""

from repro.workloads.corpus import Corpus, CorpusBuilder, CorpusConfig
from repro.workloads.series import (
    CATEGORIES,
    CategoryProfile,
    SERIES,
    SeriesSpec,
)
from repro.workloads.access import AccessTrace
from repro.workloads.tasks import TaskModel, task_for_category

__all__ = [
    "Corpus",
    "CorpusBuilder",
    "CorpusConfig",
    "CATEGORIES",
    "CategoryProfile",
    "SERIES",
    "SeriesSpec",
    "AccessTrace",
    "TaskModel",
    "task_for_category",
]
