"""Shared fixtures for the benchmark harness.

Each ``test_fig*`` / ``test_table*`` module regenerates one table or
figure from the paper.  The expensive sweeps (60 PARSEC runs, 480 boot
tests, 58 GPU runs) are computed once per session here and shared; the
``benchmark`` fixture then times a representative unit of each experiment
so ``pytest benchmarks/ --benchmark-only`` doubles as a performance
regression suite for the simulator itself.
"""

from __future__ import annotations

import pytest

from repro.art import (
    ArtifactDB,
    boot_tests,
    gpu_regalloc_study,
    parsec_study,
)


def _records(experiment):
    """:meth:`~repro.art.Experiment.records` of a study, launched on
    worker processes."""
    experiment.launch(substrate="processes", workers=8)
    return experiment.records()


@pytest.fixture(scope="session")
def parsec_sweep():
    """The use-case 1 cross product: {18.04, 20.04} x 10 apps x {1,2,8}.

    Returns ``{os_key: {app: {cpus: workload_seconds}}}``.
    """
    table = {}
    for record in _records(parsec_study(ArtifactDB())):
        table.setdefault(record["stack"], {}).setdefault(
            record["benchmark"], {}
        )[record["num_cpus"]] = record["workload_seconds"]
    return table


@pytest.fixture(scope="session")
def boot_sweep():
    """The use-case 2 cross product: 480 boot-test runs.

    Returns a list of flat records (one per run).
    """
    return [
        {
            "boot_type": record["boot_type"],
            "cpu_type": record["cpu_type"],
            "memory_system": record["memory_system"],
            "num_cpus": record["num_cpus"],
            "kernel": record["stack"].removeprefix("linux-"),
            "status": record["outcome"],
            "reason": record["reason"],
            "sim_seconds": record["sim_seconds"],
        }
        for record in _records(boot_tests(ArtifactDB()))
    ]


@pytest.fixture(scope="session")
def gpu_sweep():
    """Use-case 3: every Table IV workload under both allocators.

    Returns ``{workload: {allocator: shader_ticks}}``.
    """
    results = {}
    for record in _records(gpu_regalloc_study(ArtifactDB())):
        results.setdefault(record["workload"], {})[
            record["register_allocator"]
        ] = record["shader_ticks"]
    return results
