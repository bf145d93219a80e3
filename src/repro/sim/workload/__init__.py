"""Workload behaviour models: phase descriptors, the PARSEC suite, and the
full-system boot workload.

Every name below is lazy (the submodule ``_LAZY`` names), so a boot
loads :mod:`~repro.sim.workload.phases` and
:mod:`~repro.sim.workload.boot` and none of the benchmark families."""

import importlib

#: Lazily imported name -> the submodule defining it.
_LAZY = {
    "NPB_APPS": "npb",
    "NPB_CLASSES": "npb",
    "get_npb_workload": "npb",
    "GAPBS_KERNELS": "gapbs",
    "get_gapbs_workload": "gapbs",
    "SPEC_BENCHMARKS": "spec",
    "SPEC_INPUTS": "spec",
    "get_spec_workload": "spec",
    "DEFAULT_INPUTS": "registry",
    "get_workload": "registry",
    "suite_apps": "registry",
    "Phase": "phases",
    "Workload": "phases",
    "PARSEC_APPS": "parsec",
    "PARSEC_WORKING_APPS": "parsec",
    "PARSEC_BROKEN_APPS": "parsec",
    "ParsecApp": "parsec",
    "get_parsec_workload": "parsec",
    "INPUT_SIZES": "parsec",
    "boot_workload": "boot",
    "BOOT_TYPES": "boot",
}

__all__ = list(_LAZY)


def __getattr__(name: str):
    if name in _LAZY:
        module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
        # Cached: the next lookup is a plain module attribute.
        value = globals()[name] = getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
