"""The fault model as it stood before the rule table: the oracle.

``check_run`` below is the gem5-v20.1 decision tree, copied verbatim
(with the enum and verdict record it returned) from the
``repro.sim.faults`` it was replaced in; ``SystemConfig.uses_ruby``,
which only this tree read, is spelled out as ``memory_system !=
"classic"``.  ``test_faults.py`` holds the
rule table to it: same status value and same reason on every Fig 8 cell
for every release string it names.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.common.records import Frozen
from repro.sim.config import SystemConfig


class FaultClass(enum.Enum):
    """What becomes of a run once the fault model has spoken."""

    OK = "ok"
    UNSUPPORTED = "unsupported"
    KERNEL_PANIC = "kernel_panic"
    SEGFAULT = "gem5_segfault"
    DEADLOCK = "deadlock"
    TIMEOUT = "timeout"


class FaultVerdict(Frozen):
    """Fault-model output: class + human-readable reason."""

    _fields = ("fault", "reason")

    def __init__(self, fault: FaultClass, reason: str = ""):
        vars(self).update(fault=fault, reason=reason)

    @property
    def ok(self) -> bool:
        return self.fault is FaultClass.OK


#: Kernel series considered "old" by the O3 table (panic-prone with O3's
#: aggressive speculation on gem5 v20.1).
_OLD_SERIES = ("4.4", "4.9")


def check_run(
    version: str,
    config: SystemConfig,
    kernel_version: str,
    boot_type: str = "systemd",
) -> FaultVerdict:
    """Classify a full-system run before it executes.

    ``version`` is the simulator release.  The paper's grid is for
    v20.1.0.4; the v21.0 model reflects that release's fixes: the
    GEM5-782 segmentation fault (the 11 segfault cells) was resolved, so
    those configurations boot successfully, while the structural port
    limits and the remaining O3 failure cells persist.
    """
    structural = _structural_rules(config)
    if structural is not None:
        return structural
    if config.cpu_type == "o3":
        verdict = _o3_table(config, kernel_version, boot_type)
        if (
            verdict.fault is FaultClass.SEGFAULT
            and _release_at_least_21(version)
        ):
            return FaultVerdict(FaultClass.OK)
        return verdict
    return FaultVerdict(FaultClass.OK)


def _release_at_least_21(version: str) -> bool:
    try:
        major = int(version.split(".")[0])
    except ValueError:
        return False
    return major >= 21


def _structural_rules(config: SystemConfig) -> Optional[FaultVerdict]:
    if config.cpu_type == "kvm":
        return FaultVerdict(FaultClass.OK)
    if (
        config.cpu_type in ("timing", "o3")
        and config.memory_system == "classic"
        and config.num_cpus > 1
    ):
        return FaultVerdict(
            FaultClass.UNSUPPORTED,
            "classic memory system cannot serve multiple timing-mode "
            "requestors (gem5 v20.1 port limitation)",
        )
    if config.cpu_type == "atomic" and config.memory_system != "classic":
        return FaultVerdict(
            FaultClass.UNSUPPORTED,
            "Ruby does not support atomic memory accesses "
            f"({config.memory_system})",
        )
    return None


def _series(kernel_version: str) -> str:
    parts = kernel_version.split(".")
    return ".".join(parts[:2])


def _o3_table(
    config: SystemConfig, kernel_version: str, boot_type: str
) -> FaultVerdict:
    series = _series(kernel_version)
    cores = config.num_cpus
    mem = config.memory_system

    if mem == "classic":
        # Only single-core classic reaches here (structural rule above).
        if series in _OLD_SERIES:
            return FaultVerdict(
                FaultClass.KERNEL_PANIC,
                f"kernel {kernel_version} panics under O3 speculation "
                "(missing spin-loop workaround in old kernels)",
            )
        return FaultVerdict(FaultClass.OK)

    if mem == "MI_example":
        if cores == 8 and series in _OLD_SERIES:
            return FaultVerdict(
                FaultClass.DEADLOCK,
                "possible deadlock detected: MI_example protocol at 8 "
                "cores with an old SMP kernel",
            )
        if series in _OLD_SERIES:
            return FaultVerdict(
                FaultClass.KERNEL_PANIC,
                f"kernel {kernel_version} panics under O3 on Ruby",
            )
        if series == "4.14":
            if cores == 4:
                return FaultVerdict(
                    FaultClass.KERNEL_PANIC,
                    "kernel 4.14 panic: O3/MI_example race at 4 cores",
                )
            if cores == 8:
                if boot_type == "systemd":
                    return FaultVerdict(
                        FaultClass.KERNEL_PANIC,
                        "kernel 4.14 panic reaching runlevel 5 at 8 cores",
                    )
                return FaultVerdict(
                    FaultClass.TIMEOUT,
                    "run exceeded the 24-hour wall-clock budget",
                )
            return FaultVerdict(FaultClass.OK)
        if series == "4.19":
            if cores >= 4:
                return FaultVerdict(
                    FaultClass.TIMEOUT,
                    "run exceeded the 24-hour wall-clock budget",
                )
            return FaultVerdict(FaultClass.OK)
        # 5.4 series
        if cores == 2 or (cores == 4 and boot_type == "init"):
            return FaultVerdict(
                FaultClass.SEGFAULT,
                "gem5 segmentation fault (tracked as GEM5-782)",
            )
        if cores >= 4:
            return FaultVerdict(
                FaultClass.TIMEOUT,
                "run exceeded the 24-hour wall-clock budget",
            )
        return FaultVerdict(FaultClass.OK)

    # MESI_Two_Level
    if series == "4.4":
        return FaultVerdict(
            FaultClass.KERNEL_PANIC,
            "kernel 4.4 panics under O3/MESI_Two_Level",
        )
    if cores <= 2:
        return FaultVerdict(FaultClass.OK)
    if cores == 4:
        return FaultVerdict(
            FaultClass.SEGFAULT,
            "gem5 segmentation fault (tracked as GEM5-782)",
        )
    return FaultVerdict(
        FaultClass.TIMEOUT,
        "run exceeded the 24-hour wall-clock budget",
    )
