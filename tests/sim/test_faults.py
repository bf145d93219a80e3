"""Tests for the gem5-v20.1 support/fault model (Fig 8's ground truth)."""

import itertools

import pytest

from repro.guest import BOOT_TEST_KERNEL_VERSIONS
from repro.resources import status_matrix
from repro.sim import faults
from repro.sim.buildinfo import timing_profile
from repro.sim.config import SystemConfig
from repro.sim.faults import SimulationStatus, check_run
from tests.sim import reference_faults


def cells():
    """The full 480-run boot-test cross product."""
    for boot, kernel, cpu, mem, cores in itertools.product(
        ("init", "systemd"), BOOT_TEST_KERNEL_VERSIONS,
        ("kvm", "atomic", "timing", "o3"),
        ("classic", "MI_example", "MESI_Two_Level"), (1, 2, 4, 8),
    ):
        yield boot, kernel, SystemConfig(cpu, cores, mem)


def sweep():
    for boot, kernel, c in cells():
        verdict = check_run("20.1.0.4", c, kernel, boot)
        yield boot, kernel, c.cpu_type, c.memory_system, c.num_cpus, verdict


def test_sweep_is_480_runs():
    assert sum(1 for _ in sweep()) == 480


def test_kvm_always_works():
    for boot, kernel, cpu, mem, cores, verdict in sweep():
        if cpu == "kvm":
            assert verdict.ok, (kernel, mem, cores, boot)


def test_o3_multicore_classic_unsupported():
    for boot, kernel, cpu, mem, cores, verdict in sweep():
        if cpu == "o3" and mem == "classic" and cores > 1:
            assert verdict.fault is SimulationStatus.UNSUPPORTED


def test_deadlocks_only_on_mi_example():
    for boot, kernel, cpu, mem, cores, verdict in sweep():
        if verdict.fault is SimulationStatus.DEADLOCK:
            assert mem == "MI_example"


def test_fault_model_deterministic():
    config = SystemConfig(cpu_type="o3", num_cpus=4, memory_system="MI_example")
    one = check_run("20.1.0.4", config, "4.19.83", "systemd")
    two = check_run("20.1.0.4", config, "4.19.83", "systemd")
    assert one == two


def test_v21_fixes_the_segfault_cells():
    """gem5 v21.0 resolved GEM5-782: the 11 segfault configurations
    boot successfully on the newer release; everything else matches
    v20.1.0.4."""
    fixed = 0
    for boot, kernel, config in cells():
        verdict = check_run("20.1.0.4", config, kernel, boot)
        v21 = check_run("21.0", config, kernel, boot)
        if verdict.fault is SimulationStatus.GEM5_SEGFAULT:
            assert v21.ok, (kernel, config, boot)
            fixed += 1
        else:
            assert v21 == verdict
    assert fixed == 11


@pytest.mark.parametrize(
    "version", ["20.1.0.4", "21.0", "21.0.0.0", "develop", "19.0"]
)
def test_rule_table_matches_the_old_decision_tree(version):
    """Status and reason equal the replaced tree's on every cell, twice
    over (an unparseable release like ``develop`` is v20.1's model)."""
    for boot, kernel, config in cells():
        new = check_run(version, config, kernel, boot)
        old = reference_faults.check_run(version, config, kernel, boot)
        assert new.fault is SimulationStatus(old.fault.value)
        assert new.reason == old.reason
        assert check_run(version, config, kernel, boot) == new


def test_every_row_is_the_first_match_for_some_cell(monkeypatch):
    """No row is dead or shadowed: tagged with its index, every row
    decides at least one Fig 8 cell."""
    tagged = tuple(row[:5] + (SimulationStatus.OK, str(index))
                   for index, row in enumerate(faults.RULES))
    monkeypatch.setattr(faults, "RULES", tagged)
    decided = {
        check_run("20.1.0.4", config, kernel, boot).reason
        for boot, kernel, config in cells()
    }
    assert decided >= {str(index) for index in range(len(tagged))}


@pytest.mark.parametrize("version, release", [
    ("21.0.0.0", True), ("21.0", True), ("21", True),
    ("develop", False), ("19.0", False), ("22.0", False),
])
def test_one_release_record_per_spelling(version, release):
    """Spellings equal once trailing ``.0`` parts drop name one release;
    an untracked one (``22.0`` too) is the base model: v20.1's faults,
    identity timing, every resource untested."""
    config = SystemConfig("o3", 4, "MESI_Two_Level")
    assert check_run(version, config, "5.4.49", "init").ok is bool(release)
    scale = 1.05 if release else 1.0
    assert timing_profile(version) == {"memory_stall_scale": scale}
    matrix = status_matrix(version)
    assert set(matrix.values()) == {"supported" if release else "untested"}
