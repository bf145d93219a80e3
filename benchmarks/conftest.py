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


def _launch(experiment):
    """``(run, summary)`` of every point of a study, on worker
    processes."""
    runs = experiment.create_runs()
    return zip(runs, experiment.launch(substrate="processes", workers=8))


@pytest.fixture(scope="session")
def parsec_sweep():
    """The use-case 1 cross product: {18.04, 20.04} x 10 apps x {1,2,8}.

    Returns ``{os_key: {app: {cpus: workload_seconds}}}``.
    """
    experiment = parsec_study(ArtifactDB())
    table = {}
    for run, summary in _launch(experiment):
        table.setdefault(experiment.stack_of(run.run_id), {}).setdefault(
            run.params["benchmark"], {}
        )[run.params["num_cpus"]] = summary["workload_seconds"]
    return table


@pytest.fixture(scope="session")
def boot_sweep():
    """The use-case 2 cross product: 480 boot-test runs.

    Returns a list of flat records (one per run).
    """
    experiment = boot_tests(ArtifactDB())
    records = []
    for run, summary in _launch(experiment):
        record = {
            key: run.params[key]
            for key in ("boot_type", "cpu_type", "memory_system", "num_cpus")
        }
        record["kernel"] = experiment.stack_of(run.run_id).removeprefix(
            "linux-"
        )
        record["status"] = summary["simulation_status"]
        record["reason"] = summary["reason"]
        record["sim_seconds"] = summary["sim_seconds"]
        records.append(record)
    return records


@pytest.fixture(scope="session")
def gpu_sweep():
    """Use-case 3: every Table IV workload under both allocators.

    Returns ``{workload: {allocator: shader_ticks}}``.
    """
    results = {}
    for _, summary in _launch(gpu_regalloc_study(ArtifactDB())):
        results.setdefault(summary["workload"], {})[
            summary["register_allocator"]
        ] = summary["shader_ticks"]
    return results
