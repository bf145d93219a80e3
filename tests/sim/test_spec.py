"""Tests for the SPEC CPU workload models and licensed-image pipeline."""

import pytest

from repro.common.errors import NotFoundError, ValidationError
from repro.resources import build_resource
from repro.sim import Gem5Build, Gem5Simulator, SystemConfig
from repro.sim.workload import get_workload, suite_apps
from repro.sim.workload.spec import (
    SPEC_BENCHMARKS,
    SPEC_INPUTS,
    get_spec_benchmark,
    get_spec_workload,
)


def test_both_suites_populated():
    assert len(SPEC_BENCHMARKS["spec-2006"]) == 12
    assert len(SPEC_BENCHMARKS["spec-2017"]) == 10
    assert "mcf" in SPEC_BENCHMARKS["spec-2006"]
    assert "mcf_r" in SPEC_BENCHMARKS["spec-2017"]


def test_spec_runs_single_threaded():
    for suite, benchmarks in SPEC_BENCHMARKS.items():
        for name in benchmarks:
            workload = get_spec_workload(suite, name, "test")
            assert {p.parallelism for p in workload.phases} == {1}, (
                suite, name,
            )


def test_mcf_is_the_memory_monster():
    mcf = get_spec_benchmark("spec-2006", "mcf")
    others = [
        b for n, b in SPEC_BENCHMARKS["spec-2006"].items() if n != "mcf"
    ]
    assert all(
        mcf.working_set_bytes >= b.working_set_bytes for b in others
    )
    assert mcf.locality == min(
        b.locality for b in SPEC_BENCHMARKS["spec-2006"].values()
    )


def test_input_sets_scale():
    test = get_spec_workload("spec-2006", "gcc", "test")
    train = get_spec_workload("spec-2006", "gcc", "train")
    ref = get_spec_workload("spec-2006", "gcc", "ref")
    assert (
        test.total_instructions()
        < train.total_instructions()
        < ref.total_instructions()
    )
    assert set(SPEC_INPUTS) == {"test", "train", "ref"}


def test_unknown_lookups():
    with pytest.raises(NotFoundError):
        get_spec_benchmark("spec-2042", "mcf")
    with pytest.raises(NotFoundError):
        get_spec_benchmark("spec-2006", "doom")
    with pytest.raises(ValidationError):
        get_spec_workload("spec-2006", "mcf", "huge")


def test_registry_integration():
    assert "mcf" in suite_apps("spec-2006")
    assert get_workload("spec-2017", "xz_r").name == "spec-2017.xz_r.ref"
    assert get_workload(
        "spec-2006", "mcf", "test"
    ).name == "spec-2006.mcf.test"


def test_licensed_image_runs_end_to_end():
    """Build from (stand-in) licensed media, then actually run a SPEC
    benchmark in full-system mode."""
    image = build_resource(
        "spec-2017", iso_path="/licensed/spec2017.iso"
    ).image
    built = {e["app"] for e in image.metadata["benchmarks"]}
    assert built == set(SPEC_BENCHMARKS["spec-2017"])
    simulator = Gem5Simulator(Gem5Build(), SystemConfig())
    result = simulator.run_fs(
        "4.15.18", image, benchmark="mcf_r", input_size="test"
    )
    assert result.ok
    assert result.workload_name == "spec-2017.mcf_r.test"


def test_memory_bound_vs_compute_bound_spec():
    """mcf_r (memory monster) must show far higher time-per-instruction
    than exchange2_r (pure compute) on a timing CPU."""
    image = build_resource(
        "spec-2017", iso_path="/licensed/spec2017.iso"
    ).image
    simulator = Gem5Simulator(Gem5Build(), SystemConfig())

    def seconds_per_ginst(benchmark):
        result = simulator.run_fs(
            "4.15.18", image, benchmark=benchmark, input_size="test"
        )
        return result.workload_seconds / result.instructions * 1e9

    assert seconds_per_ginst("mcf_r") > 2 * seconds_per_ginst(
        "exchange2_r"
    )
