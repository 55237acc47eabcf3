"""Experiment harnesses regenerating the paper's tables and figures."""

from repro.bench.environment import Testbed, make_testbed
from repro.bench.deploy import (
    DeploymentResult,
    deploy_with_docker,
    deploy_with_gear,
    deploy_with_slacker,
)
from repro.bench.reporting import format_table

__all__ = [
    "Testbed",
    "make_testbed",
    "DeploymentResult",
    "deploy_with_docker",
    "deploy_with_gear",
    "deploy_with_slacker",
    "format_table",
]
