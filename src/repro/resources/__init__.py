"""GEM5 RESOURCES — the paper's second contribution.

A curated catalog of known-good simulation components (Table I): disk
images pre-loaded with benchmark suites, kernels, tests, and the GPU build
environment, each buildable from its recipe so researchers "can jump
straight into running simulations rather than having to spend valuable
time creating them".

The GPU build environment (:mod:`environment`) loads when a GPU resource
is built or its class is first named (the ``_LAZY`` table).
"""

import importlib

from repro.resources.catalog import (
    Resource,
    Gem5Test,
    GEM5_TESTS,
    list_resources,
    get_resource,
    build_resource,
    status_matrix,
)
from repro.resources import templates

#: Lazily imported name -> the submodule defining it.
_LAZY = {"GCNDockerEnvironment": "environment"}


def __getattr__(name: str):
    if name in _LAZY:
        module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
        # Cached: the next lookup is a plain module attribute.
        value = globals()[name] = getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Resource",
    "Gem5Test",
    "GEM5_TESTS",
    "list_resources",
    "get_resource",
    "build_resource",
    "status_matrix",
    "GCNDockerEnvironment",
    "templates",
]
