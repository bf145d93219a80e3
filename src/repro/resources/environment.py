"""Environment resources — the GCN3 GPU docker image.

Section V-A: simulating GPU applications on the GCN3 model requires a
precisely pinned userspace stack (ROCm 1.6, GCC 5.4, HIP/MIOpen/rocBLAS of
matching versions); getting it installed by hand is notoriously painful, so
gem5-resources ships a Docker image that *is* the environment.

:class:`GCNDockerEnvironment` models that: a pinned software manifest, a
dockerfile rendering, a stack validation check, and the list of workloads
it can build — which is how the GPU use case discovers its applications.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.errors import ValidationError
from repro.common.hashing import md5_text
from repro.common.records import Record

#: The stack the GCN3 model requires (the paper's stated versions).
REQUIRED_STACK = {
    "rocm": "1.6",
    "gcc": "5.4",
    "hip": "1.6",
    "miopen": "1.6",
    "rocblas": "1.6",
}

#: Suites buildable inside the environment (Section V-A's list).
GPU_SUITES = (
    "hip-samples",
    "HeteroSync",
    "DNNMark",
    "halo-finder",
    "lulesh",
    "pennant",
)


class GCNDockerEnvironment(Record):
    """The gcn-gpu docker image as an object: its software ``stack``
    starts as :data:`REQUIRED_STACK`."""

    name = "gcn-gpu"

    _fields = ("stack",)

    def __init__(self):
        self.stack: Dict[str, str] = dict(REQUIRED_STACK)

    def validate_stack(self) -> None:
        """Fail loudly when any component is missing or mispinned —
        modelling the 'frustrated forum user' failure mode the docker
        image exists to prevent."""
        for component, version in REQUIRED_STACK.items():
            actual = self.stack.get(component)
            if actual is None:
                raise ValidationError(
                    f"GPU environment is missing {component} "
                    f"(need {version})"
                )
            if actual != version:
                raise ValidationError(
                    f"GPU environment has {component} {actual}; the GCN3 "
                    f"model requires {version}"
                )

    def buildable_workloads(self) -> List[str]:
        """Names of every GPU workload this environment can compile."""
        from repro.gpu.workloads import WORKLOADS_BY_SUITE

        self.validate_stack()
        names: List[str] = []
        for suite in GPU_SUITES:
            names.extend(WORKLOADS_BY_SUITE.get(suite, []))
        return sorted(names)

    def dockerfile(self) -> str:
        """Render the dockerfile gem5-resources would ship."""
        lines = ["FROM ubuntu:16.04"]
        for component, version in sorted(self.stack.items()):
            lines.append(f"RUN install-{component} --version {version}")
        lines.append('ENV HCC_AMDGPU_TARGET="gfx801"')
        lines.append('WORKDIR "/gem5-resources"')
        return "\n".join(lines)

    def image_hash(self) -> str:
        """Stable identity for artifact registration."""
        return md5_text(self.dockerfile())
