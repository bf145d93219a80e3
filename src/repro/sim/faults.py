"""The gem5-v20.1 support-and-fault model, as one first-match rule table.

The bugs and gaps of gem5 v20.1.0.4 are an *artifact we cannot download*;
per the reproduction rules they are replaced by :data:`RULES`.  A row is
(cpus, memory systems, cores, kernel series, boot types) → (status,
reason): ``None`` matches anything, any other field is a collection the
run's value must be in.  The first matching row decides; a run no
row matches boots.

1. **Structural rows** come first, from the paper's Fig 8 text: classic
   memory cannot serve more than one timing-mode requestor (Timing and
   O3 fail on classic with > 1 core); Ruby does not support atomic
   accesses; kvm matches no row (it bypasses the memory timing model).
2. **Calibrated O3 rows.**  The paper reports 27 kernel panics and 31
   other failures (11 gem5 segfaults, 4 'possible deadlock detected' on
   MI_example, timeouts), ≈40% success.  Semantically motivated rows
   (old kernels panic, MI_example deadlocks at 8 cores, high core counts
   time out) give exactly those counts; EXPERIMENTS.md records them.

A later release is an overlay: :func:`repro.sim.buildinfo.release_of`
lists the bug ids it fixed (v21.0: ``GEM5-782``).  When the first
matching row's reason names one of them the run boots; it never falls
through to a later row.
"""

from __future__ import annotations

import enum
import sys

from repro.common.records import Frozen
from repro.sim.buildinfo import release_of
from repro.sim.config import SystemConfig


class SimulationStatus(enum.Enum):
    """Terminal status of one simulation, in Fig 8's vocabulary."""

    OK = "ok"
    UNSUPPORTED = "unsupported"
    KERNEL_PANIC = "kernel_panic"
    GEM5_SEGFAULT = "gem5_segfault"
    DEADLOCK = "deadlock"
    TIMEOUT = "timeout"
    WORKLOAD_ABORT = "workload_abort"


class FaultVerdict(Frozen):
    """Fault-model output: status + human-readable reason."""

    _fields = ("fault", "reason")

    def __init__(self, fault: SimulationStatus, reason: str = ""):
        vars(self).update(fault=fault, reason=reason)

    @property
    def ok(self) -> bool:
        return self.fault is SimulationStatus.OK


#: Kernel series panic-prone with O3's aggressive speculation on v20.1.
_OLD_SERIES = ("4.4", "4.9")

#: First match wins.  ``{kernel}`` and ``{mem}`` in a reason are the
#: run's kernel version and memory system.
RULES = (
    (("timing", "o3"), ("classic",), range(2, sys.maxsize), None, None,
     SimulationStatus.UNSUPPORTED, "classic memory system cannot "
     "serve multiple timing-mode requestors (gem5 v20.1 port limitation)"),
    (("atomic",), ("MI_example", "MESI_Two_Level"), None, None, None,
     SimulationStatus.UNSUPPORTED,
     "Ruby does not support atomic memory accesses ({mem})"),
    (("o3",), ("classic",), None, _OLD_SERIES, None,
     SimulationStatus.KERNEL_PANIC, "kernel {kernel} panics under "
     "O3 speculation (missing spin-loop workaround in old kernels)"),
    (("o3",), ("MI_example",), (8,), _OLD_SERIES, None,
     SimulationStatus.DEADLOCK, "possible deadlock detected: "
     "MI_example protocol at 8 cores with an old SMP kernel"),
    (("o3",), ("MI_example",), None, _OLD_SERIES, None,
     SimulationStatus.KERNEL_PANIC,
     "kernel {kernel} panics under O3 on Ruby"),
    (("o3",), ("MI_example",), (4,), ("4.14",), None,
     SimulationStatus.KERNEL_PANIC,
     "kernel 4.14 panic: O3/MI_example race at 4 cores"),
    (("o3",), ("MI_example",), (8,), ("4.14",), ("systemd",),
     SimulationStatus.KERNEL_PANIC,
     "kernel 4.14 panic reaching runlevel 5 at 8 cores"),
    (("o3",), ("MI_example",), (8,), ("4.14",), None,
     SimulationStatus.TIMEOUT,
     "run exceeded the 24-hour wall-clock budget"),
    (("o3",), ("MI_example",), None, ("4.14",), None,
     SimulationStatus.OK, ""),
    (("o3",), ("MI_example",), range(4, sys.maxsize), ("4.19",), None,
     SimulationStatus.TIMEOUT,
     "run exceeded the 24-hour wall-clock budget"),
    (("o3",), ("MI_example",), None, ("4.19",), None,
     SimulationStatus.OK, ""),
    # Every other series on MI_example fails as 5.4 does.
    (("o3",), ("MI_example",), (2,), None, None,
     SimulationStatus.GEM5_SEGFAULT,
     "gem5 segmentation fault (tracked as GEM5-782)"),
    (("o3",), ("MI_example",), (4,), None, ("init",),
     SimulationStatus.GEM5_SEGFAULT,
     "gem5 segmentation fault (tracked as GEM5-782)"),
    (("o3",), ("MI_example",), range(4, sys.maxsize), None, None,
     SimulationStatus.TIMEOUT,
     "run exceeded the 24-hour wall-clock budget"),
    (("o3",), ("MESI_Two_Level",), None, ("4.4",), None,
     SimulationStatus.KERNEL_PANIC,
     "kernel 4.4 panics under O3/MESI_Two_Level"),
    (("o3",), ("MESI_Two_Level",), (4,), None, None,
     SimulationStatus.GEM5_SEGFAULT,
     "gem5 segmentation fault (tracked as GEM5-782)"),
    (("o3",), ("MESI_Two_Level",), range(3, sys.maxsize), None, None,
     SimulationStatus.TIMEOUT,
     "run exceeded the 24-hour wall-clock budget"),
)


def check_run(
    version: str, config: SystemConfig, kernel_version: str, boot_type: str,
) -> FaultVerdict:
    """Classify a full-system run before it executes, on the simulator
    release ``version`` names (see the module docstring)."""
    cpu, mem, cores = config.cpu_type, config.memory_system, config.num_cpus
    series = ".".join(kernel_version.split(".")[:2])
    for cpus, mems, core_counts, kernels, boots, status, reason in RULES:
        if (
            cpu in cpus and mem in mems
            and (core_counts is None or cores in core_counts)
            and (kernels is None or series in kernels)
            and (boots is None or boot_type in boots)
        ):
            if any(bug in reason for bug in release_of(version).fixes):
                return FaultVerdict(SimulationStatus.OK)
            reason = reason.format(kernel=kernel_version, mem=mem)
            return FaultVerdict(status, reason)
    return FaultVerdict(SimulationStatus.OK)
