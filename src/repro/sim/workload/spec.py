"""SPEC CPU 2006 / 2017 as workload models.

Table I ships SPEC as *scripts only* (licensing forbids pre-built
images); once a user builds the image from their own media, these
profiles make the benchmarks runnable.  SPEC CPU speed runs are
single-threaded by construction (``parallelism=1``), which is why the
suite exercises a completely different axis of the simulator than PARSEC:
per-core memory behaviour rather than scaling.

Profiles follow the suites' published characterizations — ``mcf`` is the
canonical memory-bound pointer chaser, ``libquantum`` streams,
``exchange2`` is pure integer compute, etc.  Input sets scale work the
SPEC way: ``test`` ≪ ``train`` ≪ ``ref``.
"""

from __future__ import annotations

from typing import Dict

from repro.common.errors import NotFoundError, ValidationError
from repro.common.records import Frozen
from repro.sim.workload.phases import Phase, Workload

#: Instruction multipliers per SPEC input set (relative to ref).
SPEC_INPUTS = {"test": 0.02, "train": 0.15, "ref": 1.0}

_MiB = 1024 * 1024


class SpecBenchmark(Frozen):
    """One SPEC benchmark's ref-input profile."""

    _fields = (
        "name", "suite", "domain", "instructions", "working_set_bytes",
        "mem_accesses_per_kinst", "locality", "write_fraction",
        "access_regularity",
    )

    def __init__(
        self, name: str,
        suite: str,  # "spec-2006" | "spec-2017"
        domain: str, instructions: int, working_set_bytes: int,
        mem_accesses_per_kinst: float, locality: float, write_fraction: float,
        access_regularity: float = 0.5,  # stride predictability (prefetcher)
    ):
        vars(self).update(
            name=name, suite=suite, domain=domain, instructions=instructions,
            working_set_bytes=working_set_bytes,
            mem_accesses_per_kinst=mem_accesses_per_kinst, locality=locality,
            write_fraction=write_fraction, access_regularity=access_regularity,
        )


def _spec06(name, domain, instructions, ws, apki, locality, write,
            regularity=0.5):
    return SpecBenchmark(
        name, "spec-2006", domain, instructions, ws, apki, locality,
        write, regularity,
    )


def _spec17(name, domain, instructions, ws, apki, locality, write,
            regularity=0.5):
    return SpecBenchmark(
        name, "spec-2017", domain, instructions, ws, apki, locality,
        write, regularity,
    )


_BENCHMARKS = [
    # ---------------------------------------------------------- CPU2006 int
    _spec06("perlbench", "scripting interpreter",
            1_300_000_000, 64 * _MiB, 330, 0.93, 0.30),
    _spec06("bzip2", "compression",
            1_100_000_000, 96 * _MiB, 300, 0.91, 0.35),
    _spec06("gcc", "compiler",
            900_000_000, 128 * _MiB, 360, 0.88, 0.35),
    _spec06("mcf", "combinatorial optimization (memory bound)",
            700_000_000, 860 * _MiB, 480, 0.74, 0.30, regularity=0.05),
    _spec06("gobmk", "game AI (go)",
            1_200_000_000, 32 * _MiB, 290, 0.93, 0.25),
    _spec06("hmmer", "gene sequence search",
            1_500_000_000, 40 * _MiB, 260, 0.95, 0.25),
    _spec06("sjeng", "game AI (chess)",
            1_400_000_000, 180 * _MiB, 280, 0.92, 0.25),
    _spec06("libquantum", "quantum simulation (streaming)",
            1_800_000_000, 64 * _MiB, 420, 0.82, 0.30, regularity=0.95),
    _spec06("h264ref", "video encoding",
            2_000_000_000, 64 * _MiB, 310, 0.93, 0.30),
    _spec06("omnetpp", "discrete-event network simulation",
            800_000_000, 160 * _MiB, 400, 0.83, 0.35),
    _spec06("astar", "path finding",
            1_000_000_000, 180 * _MiB, 380, 0.86, 0.30),
    _spec06("xalancbmk", "XML transformation",
            1_100_000_000, 380 * _MiB, 390, 0.84, 0.30),
    # --------------------------------------------------------- CPU2017 rate
    _spec17("perlbench_r", "scripting interpreter",
            1_600_000_000, 128 * _MiB, 330, 0.93, 0.30),
    _spec17("gcc_r", "compiler",
            1_200_000_000, 700 * _MiB, 360, 0.87, 0.35),
    _spec17("mcf_r", "combinatorial optimization (memory bound)",
            900_000_000, 1400 * _MiB, 470, 0.73, 0.30, regularity=0.05),
    _spec17("omnetpp_r", "discrete-event network simulation",
            1_000_000_000, 240 * _MiB, 410, 0.82, 0.35),
    _spec17("xalancbmk_r", "XML transformation",
            1_200_000_000, 480 * _MiB, 390, 0.84, 0.30),
    _spec17("x264_r", "video encoding",
            2_200_000_000, 140 * _MiB, 300, 0.93, 0.30),
    _spec17("deepsjeng_r", "game AI (alpha-beta search)",
            1_500_000_000, 700 * _MiB, 290, 0.91, 0.25),
    _spec17("leela_r", "game AI (monte-carlo go)",
            1_700_000_000, 64 * _MiB, 280, 0.94, 0.25),
    _spec17("exchange2_r", "recursive integer compute",
            2_400_000_000, 1 * _MiB, 180, 0.98, 0.20),
    _spec17("xz_r", "compression",
            1_300_000_000, 1100 * _MiB, 350, 0.85, 0.35),
]

SPEC_BENCHMARKS: Dict[str, Dict[str, SpecBenchmark]] = {
    "spec-2006": {},
    "spec-2017": {},
}
for _benchmark in _BENCHMARKS:
    SPEC_BENCHMARKS[_benchmark.suite][_benchmark.name] = _benchmark


def get_spec_benchmark(suite: str, name: str) -> SpecBenchmark:
    if suite not in SPEC_BENCHMARKS:
        raise NotFoundError(
            f"unknown SPEC suite {suite!r}; known: "
            f"{sorted(SPEC_BENCHMARKS)}"
        )
    benchmarks = SPEC_BENCHMARKS[suite]
    if name not in benchmarks:
        raise NotFoundError(
            f"unknown {suite} benchmark {name!r}; known: "
            f"{sorted(benchmarks)}"
        )
    return benchmarks[name]


def get_spec_workload(
    suite: str, name: str, input_set: str = "ref"
) -> Workload:
    """Build the (single-threaded) workload for one SPEC benchmark."""
    benchmark = get_spec_benchmark(suite, name)
    if input_set not in SPEC_INPUTS:
        raise ValidationError(
            f"unknown SPEC input set {input_set!r}; one of "
            f"{sorted(SPEC_INPUTS)}"
        )
    scale = SPEC_INPUTS[input_set]
    instructions = int(benchmark.instructions * scale)
    working_set = max(
        1 * _MiB, int(benchmark.working_set_bytes * scale ** 0.5)
    )
    return Workload(
        name=f"{suite}.{name}.{input_set}",
        phases=(
            Phase(
                name="main",
                instructions=instructions,
                parallelism=1,  # SPEC speed runs are single-threaded
                mem_accesses_per_kinst=benchmark.mem_accesses_per_kinst,
                working_set_bytes=working_set,
                locality=benchmark.locality,
                shared_fraction=0.0,
                write_fraction=benchmark.write_fraction,
                sync_per_kinst=0.0,
                access_regularity=benchmark.access_regularity,
            ),
        ),
    )
