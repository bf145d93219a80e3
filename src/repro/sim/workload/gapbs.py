"""The GAP Benchmark Suite (GAPBS) as workload models.

Six graph kernels over a synthetic Kronecker graph of a given *scale*
(2^scale vertices, average degree 16) — the standard GAPBS invocation
``-g <scale>``.  Graph analytics is the canonically cache-hostile
workload class: very low locality, shared read-mostly graph structure,
and per-kernel instruction costs that scale with edges (pr/bc do many
iterations; tc is compute-heavier per edge).
"""

from __future__ import annotations

from typing import Dict

from repro.common.errors import NotFoundError, ValidationError
from repro.common.records import Frozen
from repro.sim.workload.phases import Phase, Workload

#: Bytes per edge in CSR form (two 4-byte endpoints + payload/overheads).
_BYTES_PER_EDGE = 12
_AVERAGE_DEGREE = 16
_MAX_PARALLELISM = 128

#: Supported graph scales (2^scale vertices).
MIN_SCALE, MAX_SCALE = 10, 26
DEFAULT_SCALE = 16


class GapbsKernel(Frozen):
    """One GAPBS kernel's per-edge cost profile."""

    _fields = (
        "name", "description", "instructions_per_edge", "locality",
        "write_fraction", "sync_per_kinst",
    )

    def __init__(
        self, name: str, description: str,
        instructions_per_edge: float,  # per edge traversed, all iterations
        locality: float, write_fraction: float, sync_per_kinst: float,
    ):
        vars(self).update(
            name=name, description=description,
            instructions_per_edge=instructions_per_edge, locality=locality,
            write_fraction=write_fraction, sync_per_kinst=sync_per_kinst,
        )


GAPBS_KERNELS: Dict[str, GapbsKernel] = {
    kernel.name: kernel
    for kernel in (
        GapbsKernel("bc", "betweenness centrality", 60.0, 0.72, 0.30, 0.5),
        GapbsKernel("bfs", "breadth-first search", 12.0, 0.70, 0.25, 0.6),
        GapbsKernel("cc", "connected components", 18.0, 0.72, 0.35, 0.4),
        GapbsKernel("pr", "PageRank (20 iterations)", 45.0, 0.75, 0.30, 0.3),
        GapbsKernel("sssp", "single-source shortest paths", 30.0, 0.70,
                    0.30, 0.7),
        GapbsKernel("tc", "triangle counting", 90.0, 0.78, 0.10, 0.2),
    )
}


def get_gapbs_kernel(name: str) -> GapbsKernel:
    if name not in GAPBS_KERNELS:
        raise NotFoundError(
            f"unknown GAPBS kernel {name!r}; known: "
            f"{sorted(GAPBS_KERNELS)}"
        )
    return GAPBS_KERNELS[name]


def get_gapbs_workload(name: str, scale: int = DEFAULT_SCALE) -> Workload:
    """Build the workload for one kernel over a scale-``scale`` graph."""
    kernel = get_gapbs_kernel(name)
    if not MIN_SCALE <= scale <= MAX_SCALE:
        raise ValidationError(
            f"graph scale {scale} outside supported range "
            f"[{MIN_SCALE}, {MAX_SCALE}]"
        )
    vertices = 1 << scale
    edges = vertices * _AVERAGE_DEGREE
    build_instructions = int(edges * 8)  # graph construction pass
    kernel_instructions = int(edges * kernel.instructions_per_edge)
    working_set = edges * _BYTES_PER_EDGE
    common = dict(
        mem_accesses_per_kinst=480.0,  # pointer chasing
        working_set_bytes=working_set,
        write_fraction=kernel.write_fraction,
        imbalance_sensitivity=0.25,  # frontier imbalance
    )
    return Workload(
        name=f"gapbs.{kernel.name}.g{scale}",
        phases=(
            Phase(
                name="build_graph",
                instructions=build_instructions,
                parallelism=_MAX_PARALLELISM,
                locality=0.85,
                shared_fraction=0.10,
                sync_per_kinst=0.1,
                access_regularity=0.7,  # sequential edge-list scan
                **common,
            ),
            Phase(
                name="kernel",
                instructions=kernel_instructions,
                parallelism=_MAX_PARALLELISM,
                locality=kernel.locality,
                shared_fraction=0.60,  # the graph itself is shared
                sync_per_kinst=kernel.sync_per_kinst,
                access_regularity=0.1,  # pointer chasing
                **common,
            ),
        ),
    )
