"""The NAS Parallel Benchmarks (NPB) as workload models.

gem5-resources ships an NPB disk image (Table I); these profiles make it
runnable.  The eight kernels/pseudo-apps follow their published
characterizations: ``ep`` is embarrassingly parallel compute, ``cg`` and
``mg`` are irregular/memory-bound, ``ft`` is all-to-all memory heavy,
``is`` is a memory-bound integer sort, and ``bt``/``sp``/``lu`` are
structured solvers with substantial communication.

Input *classes* follow NPB convention: S and W are toy sizes, A/B/C grow
roughly 4x in work per step.
"""

from __future__ import annotations

from typing import Dict

from repro.common.errors import NotFoundError, ValidationError
from repro.common.records import Frozen
from repro.sim.workload.phases import Phase, Workload

#: Work multipliers per NPB class, relative to class A.
NPB_CLASSES = {
    "S": 0.02,
    "W": 0.10,
    "A": 1.0,
    "B": 4.0,
    "C": 16.0,
}

_MiB = 1024 * 1024
_MAX_PARALLELISM = 128


class NpbApp(Frozen):
    """One NPB benchmark's class-A reference profile."""

    _fields = (
        "name", "description", "instructions", "parallel_fraction",
        "working_set_bytes", "mem_accesses_per_kinst", "locality",
        "shared_fraction", "write_fraction", "sync_per_kinst",
    )

    def __init__(
        self, name: str, description: str, instructions: int,
        parallel_fraction: float, working_set_bytes: int,
        mem_accesses_per_kinst: float, locality: float, shared_fraction: float,
        write_fraction: float, sync_per_kinst: float,
    ):
        vars(self).update(
            name=name, description=description, instructions=instructions,
            parallel_fraction=parallel_fraction,
            working_set_bytes=working_set_bytes,
            mem_accesses_per_kinst=mem_accesses_per_kinst, locality=locality,
            shared_fraction=shared_fraction, write_fraction=write_fraction,
            sync_per_kinst=sync_per_kinst,
        )


NPB_APPS: Dict[str, NpbApp] = {
    app.name: app
    for app in (
        NpbApp(
            "bt", "block tri-diagonal solver",
            2_400_000_000, 0.96, 96 * _MiB, 330, 0.90, 0.20, 0.35, 0.5,
        ),
        NpbApp(
            "cg", "conjugate gradient, irregular memory",
            1_200_000_000, 0.94, 64 * _MiB, 420, 0.82, 0.30, 0.25, 0.8,
        ),
        NpbApp(
            "ep", "embarrassingly parallel random numbers",
            1_000_000_000, 0.99, 1 * _MiB, 160, 0.97, 0.00, 0.15, 0.05,
        ),
        NpbApp(
            "ft", "3-D FFT, all-to-all communication",
            1_800_000_000, 0.95, 160 * _MiB, 380, 0.85, 0.40, 0.40, 0.6,
        ),
        NpbApp(
            "is", "integer sort, memory bound",
            400_000_000, 0.93, 80 * _MiB, 450, 0.80, 0.35, 0.45, 0.7,
        ),
        NpbApp(
            "lu", "lower-upper Gauss-Seidel solver",
            2_200_000_000, 0.95, 64 * _MiB, 340, 0.89, 0.25, 0.35, 1.0,
        ),
        NpbApp(
            "mg", "multi-grid, long/short distance memory",
            900_000_000, 0.94, 128 * _MiB, 400, 0.84, 0.30, 0.35, 0.6,
        ),
        NpbApp(
            "sp", "scalar penta-diagonal solver",
            2_600_000_000, 0.96, 96 * _MiB, 350, 0.89, 0.22, 0.35, 0.6,
        ),
    )
}


def get_npb_app(name: str) -> NpbApp:
    if name not in NPB_APPS:
        raise NotFoundError(
            f"unknown NPB benchmark {name!r}; known: {sorted(NPB_APPS)}"
        )
    return NPB_APPS[name]


def get_npb_workload(name: str, npb_class: str = "A") -> Workload:
    """Build the workload for one NPB benchmark at one input class."""
    app = get_npb_app(name)
    if npb_class not in NPB_CLASSES:
        raise ValidationError(
            f"unknown NPB class {npb_class!r}; one of "
            f"{sorted(NPB_CLASSES)}"
        )
    scale = NPB_CLASSES[npb_class]
    instructions = int(app.instructions * scale)
    # Working sets grow sub-linearly with the class (cube-root-ish grids).
    working_set = max(
        256 * 1024, int(app.working_set_bytes * scale ** (2.0 / 3.0))
    )
    serial = int(instructions * (1.0 - app.parallel_fraction))
    common = dict(
        mem_accesses_per_kinst=app.mem_accesses_per_kinst,
        working_set_bytes=working_set,
        locality=app.locality,
        write_fraction=app.write_fraction,
        imbalance_sensitivity=0.15,
    )
    return Workload(
        name=f"npb.{app.name}.{npb_class}",
        phases=(
            Phase(
                name="init",
                instructions=serial,
                parallelism=1,
                shared_fraction=0.0,
                sync_per_kinst=0.0,
                **common,
            ),
            Phase(
                name="iterations",
                instructions=instructions - serial,
                parallelism=_MAX_PARALLELISM,
                shared_fraction=app.shared_fraction,
                sync_per_kinst=app.sync_per_kinst,
                **common,
            ),
        ),
    )
