"""The PARSEC benchmark suite as workload models.

PARSEC [Bienia 2011] has 13 multi-threaded applications.  Use-case 1 of the
paper runs 10 of them: x264, facesim and canneal are excluded because of
runtime issues the authors reproduced outside gem5 (in QEMU) and therefore
attribute to the benchmarks themselves.  We model all 13, marking those
three as broken so the run layer fails them the way the real suite does.

Per-application profiles are drawn from the suite's published
characterization (domains, working-set classes, synchronization styles):
e.g. ``swaptions``/``blackscholes`` are small-footprint and embarrassingly
parallel, ``streamcluster`` is memory- and barrier-intensive, ``dedup`` and
``ferret`` are pipeline-parallel with large footprints.  ``blackscholes``
and ``ferret`` get the highest scheduler-placement sensitivity, matching
the paper's observation that they benefit most from the newer kernel.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.errors import NotFoundError, ValidationError
from repro.common.records import Frozen
from repro.sim.workload.phases import Phase, Workload

#: Instruction-count and working-set multipliers per PARSEC input size.
INPUT_SIZES = {
    "simsmall": {"instructions": 0.35, "working_set": 0.5},
    "simmedium": {"instructions": 1.0, "working_set": 1.0},
    "simlarge": {"instructions": 3.5, "working_set": 2.0},
}

_MiB = 1024 * 1024
#: Cap on useful threads inside a parallel region (inputs provide ample
#: work units for any core count the paper sweeps).
_MAX_PARALLELISM = 128


class ParsecApp(Frozen):
    """One PARSEC application's static profile (simmedium reference)."""

    _fields = (
        "name", "domain", "instructions", "parallel_fraction",
        "working_set_bytes", "mem_accesses_per_kinst", "locality",
        "shared_fraction", "write_fraction", "sync_per_kinst",
        "imbalance_sensitivity", "access_regularity", "broken",
        "broken_reason",
    )

    def __init__(
        self, name: str, domain: str, instructions: int,
        parallel_fraction: float, working_set_bytes: int,
        mem_accesses_per_kinst: float, locality: float, shared_fraction: float,
        write_fraction: float, sync_per_kinst: float,
        imbalance_sensitivity: float,
        access_regularity: float = 0.5,  # stride predictability (prefetcher)
        broken: bool = False, broken_reason: str = "",
    ):
        vars(self).update(
            name=name, domain=domain, instructions=instructions,
            parallel_fraction=parallel_fraction,
            working_set_bytes=working_set_bytes,
            mem_accesses_per_kinst=mem_accesses_per_kinst, locality=locality,
            shared_fraction=shared_fraction, write_fraction=write_fraction,
            sync_per_kinst=sync_per_kinst,
            imbalance_sensitivity=imbalance_sensitivity,
            access_regularity=access_regularity, broken=broken,
            broken_reason=broken_reason,
        )


_APP_LIST: List[ParsecApp] = [
    ParsecApp(
        name="blackscholes",
        access_regularity=0.7,
        domain="financial analysis (option pricing)",
        instructions=600_000_000,
        parallel_fraction=0.955,
        working_set_bytes=2 * _MiB,
        mem_accesses_per_kinst=200,
        locality=0.95,
        shared_fraction=0.02,
        write_fraction=0.20,
        sync_per_kinst=0.05,
        imbalance_sensitivity=0.40,
    ),
    ParsecApp(
        name="bodytrack",
        access_regularity=0.5,
        domain="computer vision (body tracking)",
        instructions=1_500_000_000,
        parallel_fraction=0.92,
        working_set_bytes=8 * _MiB,
        mem_accesses_per_kinst=280,
        locality=0.92,
        shared_fraction=0.15,
        write_fraction=0.30,
        sync_per_kinst=0.40,
        imbalance_sensitivity=0.20,
    ),
    ParsecApp(
        name="canneal",
        access_regularity=0.05,
        domain="engineering (routing cost minimization)",
        instructions=1_900_000_000,
        parallel_fraction=0.90,
        working_set_bytes=256 * _MiB,
        mem_accesses_per_kinst=420,
        locality=0.80,
        shared_fraction=0.50,
        write_fraction=0.35,
        sync_per_kinst=0.10,
        imbalance_sensitivity=0.20,
        broken=True,
        broken_reason=(
            "aborts at runtime on both gem5 and QEMU with the shipped "
            "inputs; fault is in the benchmark, not the simulator"
        ),
    ),
    ParsecApp(
        name="dedup",
        access_regularity=0.4,
        domain="enterprise storage (deduplication)",
        instructions=1_800_000_000,
        parallel_fraction=0.90,
        working_set_bytes=96 * _MiB,
        mem_accesses_per_kinst=350,
        locality=0.88,
        shared_fraction=0.25,
        write_fraction=0.40,
        sync_per_kinst=0.50,
        imbalance_sensitivity=0.22,
    ),
    ParsecApp(
        name="facesim",
        access_regularity=0.6,
        domain="animation (face simulation)",
        instructions=2_400_000_000,
        parallel_fraction=0.93,
        working_set_bytes=128 * _MiB,
        mem_accesses_per_kinst=330,
        locality=0.89,
        shared_fraction=0.20,
        write_fraction=0.35,
        sync_per_kinst=0.60,
        imbalance_sensitivity=0.20,
        broken=True,
        broken_reason=(
            "crashes during initialization on gem5 and QEMU alike "
            "(benchmark bug)"
        ),
    ),
    ParsecApp(
        name="ferret",
        access_regularity=0.4,
        domain="similarity search (content-based)",
        instructions=2_200_000_000,
        parallel_fraction=0.94,
        working_set_bytes=48 * _MiB,
        mem_accesses_per_kinst=320,
        locality=0.90,
        shared_fraction=0.20,
        write_fraction=0.30,
        sync_per_kinst=0.60,
        imbalance_sensitivity=0.38,
    ),
    ParsecApp(
        name="fluidanimate",
        access_regularity=0.5,
        domain="animation (fluid dynamics)",
        instructions=1_600_000_000,
        parallel_fraction=0.93,
        working_set_bytes=32 * _MiB,
        mem_accesses_per_kinst=300,
        locality=0.91,
        shared_fraction=0.30,
        write_fraction=0.35,
        sync_per_kinst=0.90,
        imbalance_sensitivity=0.20,
    ),
    ParsecApp(
        name="freqmine",
        access_regularity=0.35,
        domain="data mining (frequent itemsets)",
        instructions=2_000_000_000,
        parallel_fraction=0.95,
        working_set_bytes=64 * _MiB,
        mem_accesses_per_kinst=340,
        locality=0.89,
        shared_fraction=0.25,
        write_fraction=0.30,
        sync_per_kinst=0.20,
        imbalance_sensitivity=0.18,
    ),
    ParsecApp(
        name="raytrace",
        access_regularity=0.45,
        domain="rendering (real-time raytracing)",
        instructions=1_400_000_000,
        parallel_fraction=0.95,
        working_set_bytes=16 * _MiB,
        mem_accesses_per_kinst=260,
        locality=0.93,
        shared_fraction=0.10,
        write_fraction=0.25,
        sync_per_kinst=0.30,
        imbalance_sensitivity=0.20,
    ),
    ParsecApp(
        name="streamcluster",
        access_regularity=0.8,
        domain="data mining (online clustering)",
        instructions=1_200_000_000,
        parallel_fraction=0.94,
        working_set_bytes=24 * _MiB,
        mem_accesses_per_kinst=380,
        locality=0.85,
        shared_fraction=0.35,
        write_fraction=0.30,
        sync_per_kinst=1.20,
        imbalance_sensitivity=0.22,
    ),
    ParsecApp(
        name="swaptions",
        access_regularity=0.6,
        domain="financial analysis (swaption pricing)",
        instructions=1_000_000_000,
        parallel_fraction=0.97,
        working_set_bytes=1 * _MiB,
        mem_accesses_per_kinst=180,
        locality=0.96,
        shared_fraction=0.01,
        write_fraction=0.20,
        sync_per_kinst=0.10,
        imbalance_sensitivity=0.15,
    ),
    ParsecApp(
        name="vips",
        access_regularity=0.7,
        domain="media processing (image transformation)",
        instructions=1_700_000_000,
        parallel_fraction=0.93,
        working_set_bytes=20 * _MiB,
        mem_accesses_per_kinst=290,
        locality=0.91,
        shared_fraction=0.15,
        write_fraction=0.35,
        sync_per_kinst=0.40,
        imbalance_sensitivity=0.20,
    ),
    ParsecApp(
        name="x264",
        access_regularity=0.6,
        domain="media processing (H.264 encoding)",
        instructions=1_300_000_000,
        parallel_fraction=0.90,
        working_set_bytes=24 * _MiB,
        mem_accesses_per_kinst=270,
        locality=0.92,
        shared_fraction=0.20,
        write_fraction=0.35,
        sync_per_kinst=0.70,
        imbalance_sensitivity=0.25,
        broken=True,
        broken_reason=(
            "hangs mid-encode on gem5 and QEMU (threading bug in the "
            "shipped benchmark version)"
        ),
    ),
]

PARSEC_APPS: Dict[str, ParsecApp] = {app.name: app for app in _APP_LIST}

PARSEC_WORKING_APPS = tuple(
    app.name for app in _APP_LIST if not app.broken
)
PARSEC_BROKEN_APPS = tuple(app.name for app in _APP_LIST if app.broken)


def get_parsec_app(name: str) -> ParsecApp:
    if name not in PARSEC_APPS:
        raise NotFoundError(
            f"unknown PARSEC application {name!r}; "
            f"known: {sorted(PARSEC_APPS)}"
        )
    return PARSEC_APPS[name]


def get_parsec_workload(
    name: str, input_size: str = "simmedium"
) -> Workload:
    """Build the phase-level workload for one app at one input size.

    The structure is the standard PARSEC shape: a serial initialization
    region, the parallel region of interest, and a serial wind-down.
    """
    app = get_parsec_app(name)
    if input_size not in INPUT_SIZES:
        raise ValidationError(
            f"unknown input size {input_size!r}; "
            f"known: {sorted(INPUT_SIZES)}"
        )
    scales = INPUT_SIZES[input_size]
    instructions = int(app.instructions * scales["instructions"])
    working_set = int(app.working_set_bytes * scales["working_set"])
    serial = int(instructions * (1.0 - app.parallel_fraction))
    parallel = instructions - serial
    common = dict(
        mem_accesses_per_kinst=app.mem_accesses_per_kinst,
        working_set_bytes=working_set,
        locality=app.locality,
        write_fraction=app.write_fraction,
        imbalance_sensitivity=app.imbalance_sensitivity,
        access_regularity=app.access_regularity,
    )
    return Workload(
        name=f"parsec.{app.name}.{input_size}",
        phases=(
            Phase(
                name="init",
                instructions=serial // 2,
                parallelism=1,
                shared_fraction=0.0,
                sync_per_kinst=0.0,
                **common,
            ),
            Phase(
                name="roi",
                instructions=parallel,
                parallelism=_MAX_PARALLELISM,
                shared_fraction=app.shared_fraction,
                sync_per_kinst=app.sync_per_kinst,
                **common,
            ),
            Phase(
                name="finish",
                instructions=serial - serial // 2,
                parallelism=1,
                shared_fraction=0.0,
                sync_per_kinst=0.0,
                **common,
            ),
        ),
    )
