"""Runner for the 'gem5 tests' resource.

Table I's last row is a set of simulator self-tests (asmtest, insttest,
riscv-tests, simple/m5ops, square).  This module makes that resource
executable: each test drives a small, deterministic simulation against a
:class:`~repro.sim.buildinfo.Gem5Build` and checks an invariant.  Tests
whose required ISA does not match the build are *skipped* — the same
semantics the real test suite has when a binary lacks a static
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.gpu.config import GPUConfig
from repro.gpu.device import GPUDevice
from repro.gpu.kernels import GPUKernel
# This module is the one sanctioned exception to sim's layer: it
# *executes* the "gem5 tests" resource, so it needs the catalog, and it
# cannot move up a layer because procpool envelopes address its
# functions by dotted path ("repro.sim.testing:boot_shard_job").
from repro.resources.catalog import GEM5_TESTS, Gem5Test  # repro: noqa[ARCH-LAYER]
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
    # Sanctioned exception, same reason as the module-level import.
    from repro.resources.catalog import build_resource  # repro: noqa[ARCH-LAYER]

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


# --------------------------------------------------------------------------
# Picklable process-pool workloads.
#
# The process substrate (repro.scheduler.procpool) imports job targets by
# dotted path inside freshly spawned workers, so they must be module-level
# functions taking plain-data payloads.  These are the reference
# workloads of the procpool and chaos-kill suites, which is why they
# live in the package and not in ``tests/``: a spawned worker can import
# ``repro`` but not the test tree.


# worker target: tests/scheduler/test_procpool.py, tests/chaos/test_procpool_kill.py
def boot_shard_job(payload: dict) -> dict:  # repro: noqa[DEAD-REACH]
    """One shard unit: a deterministic timing-CPU FS boot, repeated.

    ``payload`` keys: ``kernel`` (default "5.4.49"), ``cpu_type``
    (default "timing"), ``repeats`` (work amplification — the boot is
    re-simulated that many times and must produce bit-identical stats,
    so the amplification doubles as a determinism check), ``index``
    (echoed back for shard bookkeeping).
    """
    from repro.common.hashing import sha256_text

    # Sanctioned exception, same reason as the module-level import.
    from repro.resources.catalog import build_resource  # repro: noqa[ARCH-LAYER]

    repeats = int(payload.get("repeats", 1))
    build = Gem5Build()
    simulator = Gem5Simulator(
        build, SystemConfig(cpu_type=payload.get("cpu_type", "timing"))
    )
    image = build_resource("boot-exit").image
    kernel = payload.get("kernel", "5.4.49")
    result = simulator.run_fs(kernel, image, boot_type="init")
    fingerprint = sha256_text(result.stats_txt())
    for _ in range(repeats - 1):
        again = simulator.run_fs(kernel, image, boot_type="init")
        if sha256_text(again.stats_txt()) != fingerprint:
            raise AssertionError(
                "non-deterministic boot: stats changed on repeat"
            )
    return {
        "index": payload.get("index"),
        "sim_seconds": result.sim_seconds,
        "instructions": result.instructions,
        "stats_fingerprint": fingerprint,
        "repeats": repeats,
        "ok": result.ok,
    }


# worker target: test_procpool.py::test_worker_telemetry_merges_into_parent_session
def telemetry_probe_job(payload: dict) -> dict:  # repro: noqa[DEAD-REACH]
    """A trivial job that records one of each telemetry signal.

    Used to test that a worker process's private telemetry session is
    shipped back and merged into the parent's (counter adds, histogram
    absorbs, event re-sequences with a ``worker`` attribute).
    """
    from repro.telemetry import get_event_log, get_metrics

    amount = float(payload.get("amount", 1))
    get_metrics().counter(
        "probe_total", "Telemetry-merge probe counter"
    ).inc(amount)
    get_metrics().histogram(
        "probe_seconds", "Telemetry-merge probe histogram"
    ).observe(amount)
    get_event_log().emit("probe.ran", index=payload.get("index"))
    return {"ok": True, "amount": amount}


# worker target: tests/chaos/test_procpool_kill.py (SIGKILL -> redelivery)
def kill_once_job(payload: dict) -> dict:  # repro: noqa[DEAD-REACH]
    """A boot-shard job whose *first* delivery SIGKILLs its own worker.

    ``payload["sentinel"]`` names a filesystem path shared with the
    parent: the first attempt creates it and then kills the worker
    process dead (no cleanup, no exception — exactly what a segfaulting
    gem5 looks like to the scheduler).  The redelivered attempt sees the
    sentinel and completes normally, so a crash-recovery chaos test gets a
    deterministic one-crash-then-success script with no racy
    parent-side kill timing.
    """
    import os
    import signal

    sentinel = payload["sentinel"]
    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as handle:
            handle.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return boot_shard_job(payload)
