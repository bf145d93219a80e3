"""A full-system computer-architecture simulator — the gem5 substitute.

gem5art treats gem5 as a black box with a well-defined contract: a simulator
binary (compiled from a source revision with a static configuration) takes a
run script, a kernel, a disk image and parameters, and produces statistics
or a characteristic failure.  This package implements that contract with a
discrete-event simulator detailed enough to drive every experiment in the
paper:

- four CPU models (``kvm``, ``atomic``, ``timing``, ``o3``) with distinct
  timing behaviour,
- two memory systems (``classic`` and Ruby with the ``MI_example`` and
  ``MESI_Two_Level`` protocols) with a cache/coherence timing model,
- a full-system boot sequencer driven by the guest kernel/distro models,
- workload execution for multi-threaded benchmark suites (PARSEC),
- gem5-v20.1-accurate *support limits and failure modes* via an explicit
  fault model (see :mod:`repro.sim.faults`),
- gem5-style statistics output.

Every name below is lazy: it resolves on first use from the submodule
``_LAZY`` names, so importing :mod:`repro.sim.buildinfo` (all an
artifact needs) or a ``Gem5Build`` loads no simulator, workload family,
fault model or CPU/memory model.
"""

import importlib

#: Lazily imported name -> the submodule defining it.
_LAZY = {
    "EventQueue": "events",
    "SystemConfig": "config",
    "CacheConfig": "config",
    "MemoryTech": "config",
    "MEMORY_TECHS": "config",
    "CPU_TYPES": "config",
    "MEMORY_SYSTEMS": "config",
    "Gem5Build": "buildinfo",
    "Checkpoint": "checkpoint",
    "Gem5Simulator": "simulator",
    "SimulationResult": "simulator",
    "SimulationStatus": "faults",
}

__all__ = list(_LAZY)


def __getattr__(name: str):
    if name in _LAZY:
        module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
        # Cached: the next lookup is a plain module attribute.
        value = globals()[name] = getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
