"""Tests for the gem5-tests resource runner."""

from repro.resources.catalog import GEM5_TESTS
from repro.sim import Gem5Build
from repro.resources.selftest import TestOutcome, run_gem5_test, run_test_suite


def by_name(outcomes):
    return {outcome.test_name: outcome for outcome in outcomes}


def test_x86_build_runs_portable_tests():
    outcomes = by_name(run_test_suite(Gem5Build(isa="X86")))
    assert outcomes["insttest"].passed
    assert outcomes["simple"].passed
    # RISC-V and GPU specific tests skip on an X86 build.
    assert outcomes["asmtest"].status == "skip"
    assert outcomes["riscv-tests"].status == "skip"
    assert outcomes["square"].status == "skip"


def test_riscv_build_runs_riscv_tests():
    outcomes = by_name(run_test_suite(Gem5Build(isa="RISCV")))
    assert outcomes["asmtest"].passed
    assert outcomes["riscv-tests"].passed
    assert outcomes["square"].status == "skip"


def test_gcn3_build_runs_square():
    outcomes = by_name(
        run_test_suite(Gem5Build(version="21.0", isa="GCN3_X86"))
    )
    assert outcomes["square"].passed
    assert outcomes["asmtest"].status == "skip"


def test_skip_reason_names_isa():
    build = Gem5Build(isa="X86")
    square = next(t for t in GEM5_TESTS if t.name == "square")
    outcome = run_gem5_test(build, square)
    assert outcome.status == "skip"
    assert "GCN3_X86" in outcome.detail


def test_suite_covers_all_resource_entries():
    outcomes = run_test_suite(Gem5Build())
    assert {o.test_name for o in outcomes} == {
        t.name for t in GEM5_TESTS
    }


def test_outcome_passed_property():
    assert TestOutcome("x", "pass").passed
    assert not TestOutcome("x", "skip").passed
    assert not TestOutcome("x", "fail").passed
