"""Runner for the 'gem5 tests' resource (``repro selftest``).

Table I's last row is a set of simulator self-tests (asmtest, insttest,
riscv-tests, simple/m5ops, square).  This module makes that resource
executable: each test drives a small, deterministic simulation against a
:class:`~repro.sim.buildinfo.Gem5Build` and checks an invariant.  Tests
whose required ISA does not match the build are *skipped* — the same
semantics the real test suite has when a binary lacks a static
configuration.  It executes the catalog, so it lives beside it;
``repro.resources`` does not import it, so only the ``selftest`` verb
loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.gpu.config import GPUConfig
from repro.gpu.device import GPUDevice
from repro.gpu.kernels import GPUKernel
from repro.resources.catalog import GEM5_TESTS, Gem5Test, build_resource
from repro.sim.buildinfo import Gem5Build
from repro.sim.config import SystemConfig
from repro.sim.simulator import Gem5Simulator
from repro.sim.workload.phases import Phase, Workload


@dataclass(frozen=True)
class TestOutcome:
    """Result of one gem5 self-test run."""

    #: Tell pytest this is a result record, not a test class to collect.
    __test__ = False

    test_name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _tiny_workload(name: str, instructions: int = 100_000) -> Workload:
    return Workload(
        name=name,
        phases=(
            Phase(
                name="test",
                instructions=instructions,
                parallelism=1,
                working_set_bytes=64 * 1024,
                locality=0.95,
            ),
        ),
    )


def _check_se_determinism(build: Gem5Build, label: str) -> TestOutcome:
    """Run a tiny SE-mode workload twice; identical results == pass."""
    simulator = Gem5Simulator(build, SystemConfig(cpu_type="atomic"))
    first = simulator.run_se(_tiny_workload(label))
    second = simulator.run_se(_tiny_workload(label))
    if not first.ok or not second.ok:
        return TestOutcome(label, "fail", "SE run did not complete")
    if first.sim_seconds != second.sim_seconds:
        return TestOutcome(label, "fail", "non-deterministic timing")
    if first.instructions != 100_000:
        return TestOutcome(
            label, "fail",
            f"retired {first.instructions} instructions, expected 100000",
        )
    return TestOutcome(label, "pass")


def _check_m5ops(build: Gem5Build) -> TestOutcome:
    """The 'simple' test: m5 exit must terminate a run cleanly.

    Modelled as: a zero-benchmark FS boot (which ends with the exit op)
    completes with OK status and positive simulated time.
    """
    simulator = Gem5Simulator(build, SystemConfig(cpu_type="atomic"))
    image = build_resource("boot-exit").image
    if not image.exists("/home/gem5/exit.sh"):
        return TestOutcome("simple", "fail", "exit script missing")
    result = simulator.run_fs("5.4.49", image, boot_type="init")
    if not result.ok or result.sim_seconds <= 0:
        return TestOutcome("simple", "fail", "boot-exit did not finish")
    return TestOutcome("simple", "pass")


def _check_square(build: Gem5Build) -> TestOutcome:
    """The 'square' test: square a vector of floats on the GPU model.

    Checks that a trivial kernel executes under both register allocators
    with identical occupancy-1 timing (one workgroup cannot differ).
    """
    device = GPUDevice(GPUConfig())
    kernel = GPUKernel(
        name="square",
        num_workgroups=1,
        instructions_per_wavefront=256,
        vregs_per_wavefront=16,
        memory_intensity=0.25,
        dependency_density=0.1,
    )
    simple = device.execute(kernel, "simple")
    dynamic = device.execute(kernel, "dynamic")
    if simple.shader_ticks <= 0:
        return TestOutcome("square", "fail", "kernel did not execute")
    if simple.shader_ticks != dynamic.shader_ticks:
        return TestOutcome(
            "square", "fail",
            "single-workgroup kernel timing differs between allocators",
        )
    return TestOutcome("square", "pass")


def run_gem5_test(build: Gem5Build, test: Gem5Test) -> TestOutcome:
    """Run one entry of the gem5-tests resource against a build."""
    if test.requires_isa is not None and build.isa != test.requires_isa:
        return TestOutcome(
            test.name,
            "skip",
            f"requires a {test.requires_isa} build (got {build.isa})",
        )
    if test.name in ("asmtest", "riscv-tests", "insttest"):
        return _check_se_determinism(build, test.name)
    if test.name == "simple":
        return _check_m5ops(build)
    if test.name == "square":
        return _check_square(build)
    return TestOutcome(test.name, "fail", "unknown test")


def run_test_suite(build: Gem5Build) -> List[TestOutcome]:
    """Run every gem5 self-test appropriate for a build."""
    return [run_gem5_test(build, test) for test in GEM5_TESTS]
