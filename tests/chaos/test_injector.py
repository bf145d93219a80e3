"""Unit tests for the deterministic fault injector itself."""

import time

import pytest

from repro import chaos
from repro.chaos import ChaosInjector, FaultRule, WorkerCrashed
from repro.common.errors import FaultInjectedError, ValidationError


@pytest.fixture(autouse=True)
def no_leftover_injector():
    yield
    chaos.uninstall()


# ----------------------------------------------------------------- rules


def test_the_package_hook_fires_an_injector_installed_by_injected():
    """``injected`` (resolved lazily from ``repro.chaos``) installs the
    rule engine behind the one hook production code calls."""
    chaos.fire("hook.point")  # nothing installed: a no-op
    with chaos.injected(seed=3, rules=[FaultRule("hook.point")]) as inj:
        assert chaos.active() is inj
        with pytest.raises(FaultInjectedError):
            chaos.fire("hook.point")
    assert chaos.active() is None
    assert inj.log()[0]["point"] == "hook.point"
    chaos.fire("hook.point")


def test_rule_validation():
    with pytest.raises(ValidationError):
        FaultRule("x", action="explode")
    with pytest.raises(ValidationError):
        FaultRule("x", probability=1.5)
    with pytest.raises(ValidationError):
        FaultRule("x", after=-1)
    with pytest.raises(ValidationError):
        FaultRule("x", delay=-0.1)


def test_exact_and_prefix_matching():
    rule = FaultRule("filestore.get")
    assert rule.matches("filestore.get", {})
    assert not rule.matches("filestore.put", {})
    star = FaultRule("filestore.*")
    assert star.matches("filestore.get", {})
    assert star.matches("filestore.put", {})
    assert not star.matches("backend.transition", {})


def test_context_matching():
    rule = FaultRule("run.status", match={"status": "running"})
    assert rule.matches("run.status", {"status": "running"})
    assert not rule.matches("run.status", {"status": "done"})
    assert not rule.matches("run.status", {})


# ---------------------------------------------------------------- firing


def test_raise_action():
    injector = ChaosInjector(1, [FaultRule("p", error="boom")])
    with pytest.raises(FaultInjectedError, match="p: boom"):
        injector.fire("p")


def test_crash_action_is_not_an_ordinary_exception():
    injector = ChaosInjector(1, [FaultRule("p", action="crash")])
    with pytest.raises(WorkerCrashed):
        injector.fire("p")
    assert not issubclass(WorkerCrashed, Exception)


def test_delay_action_sleeps_but_does_not_raise():
    injector = ChaosInjector(
        1, [FaultRule("p", action="delay", delay=0.05)]
    )
    started = time.monotonic()
    injector.fire("p")
    assert time.monotonic() - started >= 0.04


def test_after_and_times_windows():
    injector = ChaosInjector(
        1, [FaultRule("p", after=2, times=1)]
    )
    injector.fire("p")  # skipped (after)
    injector.fire("p")  # skipped (after)
    with pytest.raises(FaultInjectedError):
        injector.fire("p")  # fires
    injector.fire("p")  # budget spent
    report = injector.report()
    (stats,) = report.values()
    assert stats == {"seen": 4, "fired": 1}


def test_probability_is_seed_deterministic():
    def firing_pattern(seed):
        injector = ChaosInjector(
            seed, [FaultRule("p", probability=0.5)]
        )
        pattern = []
        for _ in range(50):
            try:
                injector.fire("p")
                pattern.append(0)
            except FaultInjectedError:
                pattern.append(1)
        return pattern

    assert firing_pattern(7) == firing_pattern(7)
    assert firing_pattern(7) != firing_pattern(8)
    assert 0 < sum(firing_pattern(7)) < 50


def test_log_records_fired_faults_in_order():
    injector = ChaosInjector(
        3,
        [
            FaultRule("a", times=1, error="first"),
            FaultRule("b", times=1, error="second"),
        ],
    )
    with pytest.raises(FaultInjectedError):
        injector.fire("a", task="t1")
    with pytest.raises(FaultInjectedError):
        injector.fire("b")
    log = injector.log()
    assert [entry["point"] for entry in log] == ["a", "b"]
    assert log[0]["context"] == {"task": "t1"}


# ----------------------------------------------------------- installation


def test_module_fire_is_noop_without_injector():
    chaos.fire("anything.at.all", foo=1)  # must not raise


def test_injected_context_manager_installs_and_uninstalls():
    with chaos.injected(5, [FaultRule("p")]) as injector:
        assert chaos.active() is injector
        with pytest.raises(FaultInjectedError):
            chaos.fire("p")
    assert chaos.active() is None
    chaos.fire("p")  # no-op again


def test_single_installation_enforced():
    with chaos.injected(1, []):
        with pytest.raises(ValidationError):
            chaos.install(ChaosInjector(2, []))
