"""GEM5 RESOURCES — the paper's second contribution.

A curated catalog of known-good simulation components (Table I): disk
images pre-loaded with benchmark suites, kernels, tests, and the GPU build
environment, each buildable from its recipe so researchers "can jump
straight into running simulations rather than having to spend valuable
time creating them".
"""

from repro.resources.catalog import (
    Resource,
    Gem5Test,
    GEM5_TESTS,
    TRACKED_GEM5_VERSIONS,
    list_resources,
    get_resource,
    build_resource,
    status_matrix,
)
from repro.resources.environment import GCNDockerEnvironment
from repro.resources import templates

__all__ = [
    "Resource",
    "Gem5Test",
    "GEM5_TESTS",
    "TRACKED_GEM5_VERSIONS",
    "list_resources",
    "get_resource",
    "build_resource",
    "status_matrix",
    "GCNDockerEnvironment",
    "templates",
]
