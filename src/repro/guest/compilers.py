"""Compiler toolchain models.

The paper attributes the PARSEC runtime gap between Ubuntu releases largely
to the bundled GCC: 18.04 ships GCC 7.4, 20.04 ships GCC 9.3, and the
authors observed the 20.04 binaries executing *more* instructions but at a
*higher* CPU utilization (fewer stall cycles), netting faster runs.

A :class:`Compiler` therefore carries two codegen coefficients:

- ``instruction_scale`` — multiplier on a benchmark's dynamic instruction
  count relative to the reference toolchain (GCC 7.4 == 1.0);
- ``memory_cpi_scale`` — multiplier on the memory-stall component of CPI,
  capturing vectorization/locality improvements.
"""

from __future__ import annotations

from repro.common.errors import NotFoundError
from repro.common.records import Frozen


class Compiler(Frozen):
    """An immutable description of a guest toolchain."""

    _fields = ("name", "version", "instruction_scale", "memory_cpi_scale")

    def __init__(
        self, name: str, version: str,
        instruction_scale: float,  # dynamic instructions vs GCC 7.4's build
        memory_cpi_scale: float,  # memory-stall cycles/instruction (locality)
    ):
        vars(self).update(
            name=name, version=version, instruction_scale=instruction_scale,
            memory_cpi_scale=memory_cpi_scale,
        )

    @property
    def key(self) -> str:
        return f"{self.name}-{self.version}"

    def describe(self) -> str:
        return (
            f"{self.name} {self.version} "
            f"(instr x{self.instruction_scale}, "
            f"mem-stall x{self.memory_cpi_scale})"
        )


#: Toolchains referenced by the paper.  GCC 9.3 emits more instructions
#: (more aggressive inlining/vectorized prologues) but with better locality,
#: matching the authors' observation for Ubuntu 20.04 builds.
COMPILERS = {
    "gcc-7.4": Compiler("gcc", "7.4", 1.00, 1.00),
    "gcc-7.5": Compiler("gcc", "7.5", 1.00, 0.99),
    "gcc-9.3": Compiler("gcc", "9.3", 1.07, 0.80),
}


def get_compiler(key: str) -> Compiler:
    """Look up a compiler by ``name-version`` key."""
    if key not in COMPILERS:
        raise NotFoundError(
            f"unknown compiler {key!r}; known: {sorted(COMPILERS)}"
        )
    return COMPILERS[key]
