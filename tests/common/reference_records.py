"""The ``@dataclass`` definitions the record classes replaced.

Every class below is the field list of one ``repro`` record as it stood
when it was a dataclass: same name, field order, defaults, ``frozen``
and ``repr=False`` flags, and no methods.  ``test_records.py`` holds
each converted class to what these generate: equality, hashing,
``repr``, immutability, pickling and copying.  The comment above each
class names the module it lives in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.art.run import RunStatus
from repro.common.ids import new_uuid
from repro.resources.environment import REQUIRED_STACK


# repro.analysis.dataflow.callgraph
@dataclass
class FunctionInfo:
    qualname: str
    module: FileContext
    node: ast.AST
    cls_name: Optional[str] = None


# repro.analysis.dataflow.callgraph
@dataclass
class ClassInfo:
    qualname: str
    module: FileContext
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    bases: List[str] = field(default_factory=list)


# repro.analysis.dataflow.graph
@dataclass(frozen=True)
class ImportEdge:
    source: str
    target: str
    lineno: int
    type_checking: bool = False
    toplevel: bool = True


# repro.analysis.engine
@dataclass(frozen=True)
class Finding:
    file: str
    line: int
    col: int
    rule_id: str
    severity: str
    message: str
    snippet: str = ""


# repro.analysis.series
@dataclass
class Series:
    name: str
    values: Dict[str, float] = field(default_factory=dict)


# repro.art.artifact
@dataclass
class Artifact:
    name: str
    typ: str
    path: str
    hash: str
    id: str
    command: str = ""
    cwd: str = "."
    documentation: str = ""
    inputs: List[str] = field(default_factory=list)
    git: Dict[str, str] = field(default_factory=dict)
    file_id: Optional[str] = None
    metadata: Dict[str, object] = field(default_factory=dict)
    _db: Optional[ArtifactDB] = None


# repro.art.run
@dataclass
class Gem5Run:
    run_id: str
    kind: str
    artifacts: Dict[str, str]
    params: Dict[str, object]
    timeout: float
    db: ArtifactDB = field(repr=False)
    spec: RunSpec = field(repr=False)
    fingerprint: str
    status: RunStatus = RunStatus.CREATED
    results: Optional[Dict[str, object]] = None


# repro.art.run
@dataclass
class Attempt:
    span: Any
    started_at_wall: str
    restore: Optional[Checkpoint] = None


# repro.art.spec
@dataclass(frozen=True)
class RunSpec:
    kind: str
    artifacts: Mapping[str, str] = field(default_factory=dict)
    params: Mapping[str, object] = field(default_factory=dict)
    build: Mapping[str, str] = field(default_factory=dict)


# repro.chaos.injector
@dataclass(frozen=True)
class FaultRule:
    point: str
    action: str = "raise"
    probability: float = 1.0
    times: Optional[int] = None
    after: int = 0
    delay: float = 0.0
    error: str = "injected fault"
    match: Optional[Dict[str, Any]] = None


# repro.chaos.injector
@dataclass
class _RuleState:
    rule: FaultRule
    stream: RngStream
    seen: int = 0
    fired: int = 0


# repro.common.gitinfo
@dataclass(frozen=True)
class GitInfo:
    url: str
    revision: str


# repro.gpu.config
@dataclass(frozen=True)
class GPUConfig:
    num_cus: int = 4
    simds_per_cu: int = 4
    gpu_clock_ghz: float = 1.0
    max_wavefronts_per_simd: int = 10
    vector_registers_per_cu: int = 8192
    scalar_registers_per_cu: int = 8192
    lds_bytes_per_cu: int = 64 * 1024
    l1i_bytes_per_4cu: int = 32 * 1024
    l1d_bytes_per_cu: int = 16 * 1024
    l2_bytes: int = 256 * 1024
    memory_tech: str = "DDR3_1600_8x8"
    memory_channels: int = 1
    memory_latency_cycles: int = 350
    dependence_tracking_penalty: float = 0.08


# repro.gpu.device
@dataclass
class GPURunResult:
    kernel_name: str
    allocator: str
    shader_ticks: float
    compute_ticks: float
    sync_ticks: float
    dispatch_ticks: float
    occupancy_per_simd: int
    stats: Dict[str, float] = field(default_factory=dict)


# repro.gpu.kernels
@dataclass(frozen=True)
class GPUKernel:
    name: str
    num_workgroups: int
    wavefronts_per_workgroup: int = 1
    vregs_per_wavefront: int = 64
    sregs_per_wavefront: int = 16
    lds_bytes_per_workgroup: int = 0
    instructions_per_wavefront: int = 2000
    memory_intensity: float = 0.15
    dependency_density: float = 0.5
    sync_ops_per_wavefront: float = 0.0
    critical_section_cycles: float = 200.0
    contention_coefficient: float = 0.5
    per_cu_sync: bool = False


# repro.gpu.workloads.registry
@dataclass(frozen=True)
class GPUWorkload:
    name: str
    suite: str
    input_size: str
    kernel: GPUKernel
    expected_dynamic: str


# repro.guest.compilers
@dataclass(frozen=True)
class Compiler:
    name: str
    version: str
    instruction_scale: float
    memory_cpi_scale: float


# repro.guest.distros
@dataclass(frozen=True)
class UbuntuRelease:
    name: str
    version: str
    codename: str
    released: str
    kernel_version: str
    compiler_key: str
    init_instructions: int
    base_packages: Tuple[str, ...]


# repro.guest.kernels
@dataclass(frozen=True)
class LinuxKernel:
    version: str
    series: str
    lts: bool
    boot_phases: Tuple[Tuple[str, int], ...]
    scheduler_efficiency: float
    syscall_cost_scale: float = 1.0


# repro.packer.build
@dataclass
class BuildResult:
    image: "DiskImage"
    log: List[str] = field(default_factory=list)


# repro.pipeline.manifest
@dataclass(frozen=True)
class StageSpec:
    name: str
    kind: str
    inputs: Tuple[str, ...] = ()
    params: Mapping[str, Any] = field(default_factory=dict)
    gates: Tuple[Mapping[str, Any], ...] = ()


# repro.pipeline.manifest
@dataclass(frozen=True)
class Manifest:
    name: str
    description: str
    execution: Mapping[str, Any]
    stages: Tuple[StageSpec, ...]
    source_path: Optional[str] = None


# repro.pipeline.stages
@dataclass
class StageContext:
    db: ArtifactDB
    pipeline_id: str
    pipeline_name: str
    stage: StageSpec
    inputs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    execution: Dict[str, Any] = field(default_factory=dict)


# repro.resources.catalog
@dataclass(frozen=True)
class Resource:
    name: str
    rtype: str
    description: str
    redistributable: bool = True
    requires_isa: Optional[str] = None


# repro.resources.catalog
@dataclass(frozen=True)
class Gem5Test:
    name: str
    description: str
    requires_isa: Optional[str] = None


# repro.resources.environment
@dataclass
class GCNDockerEnvironment:
    name: str = "gcn-gpu"
    stack: Dict[str, str] = field(
        default_factory=lambda: dict(REQUIRED_STACK)
    )


# repro.resources.selftest
@dataclass(frozen=True)
class TestOutcome:
    __test__ = False
    test_name: str
    status: str
    detail: str = ""


# repro.scheduler.procpool
@dataclass(frozen=True)
class JobEnvelope:
    target: str
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    task_id: str = field(default_factory=new_uuid)
    telemetry: bool = False
    shared: Dict[str, Any] = field(default_factory=dict)
    timeout: Optional[float] = None


# repro.sim.buildinfo
@dataclass(frozen=True)
class Gem5Build:
    version: str = "20.1.0.4"
    isa: str = "X86"
    variant: str = "opt"


# repro.sim.checkpoint
@dataclass(frozen=True)
class Checkpoint:
    kernel_version: str
    boot_type: str
    disk_image_hash: str
    num_cpus: int
    memory_system: str
    boot_seconds: float
    boot_instructions: int


# repro.sim.config
@dataclass(frozen=True)
class MemoryTech:
    name: str
    access_latency_ns: float
    bandwidth_gbps: float


# repro.sim.config
@dataclass(frozen=True)
class CacheConfig:
    size_bytes: int
    assoc: int
    latency_cycles: int


# repro.sim.config
@dataclass(frozen=True)
class SystemConfig:
    cpu_type: str = "timing"
    num_cpus: int = 1
    cpu_clock_ghz: float = 3.0
    memory_system: str = "classic"
    memory_tech: str = "DDR3_1600_8x8"
    memory_channels: int = 1
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 8, 2)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 8, 2)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(1024 * 1024, 16, 12)
    )
    prefetcher: bool = False
    prefetcher_effectiveness: float = 0.7


# repro.sim.cpu.models
@dataclass(frozen=True)
class CpuModel:
    name: str
    base_cpi: float
    memory_exposure: float
    models_timing: bool = True


# repro.sim.engine
@dataclass(frozen=True)
class ExecutionModifiers:
    instruction_scale: float = 1.0
    memory_stall_scale: float = 1.0
    scheduler_efficiency: float = 0.90
    syscall_cost_scale: float = 1.0


# repro.sim.engine
@dataclass
class ExecutionOutcome:
    ticks: int
    instructions: int
    busy_cycles: float
    total_cycles: float


# repro.sim.faults
@dataclass(frozen=True)
class FaultVerdict:
    fault: SimulationStatus
    reason: str = ""


# repro.sim.m5ops
@dataclass
class M5OpLog:
    events: List[Tuple[int, str]] = field(default_factory=list)


# repro.sim.mem.hierarchy
@dataclass(frozen=True)
class MemoryTimings:
    amat_cycles: float
    dram_access_ratio: float
    l1_miss_ratio: float
    dram_stall_cycles: float = 0.0


# repro.sim.simulator
@dataclass
class SimulationResult:
    status: SimulationStatus
    reason: str = ""
    stats: Dict[str, float] = field(default_factory=dict)
    sim_seconds: float = 0.0
    boot_seconds: float = 0.0
    workload_seconds: float = 0.0
    instructions: int = 0
    config_summary: str = ""
    workload_name: str = ""
    m5ops: list = field(default_factory=list)


# repro.sim.workload.gapbs
@dataclass(frozen=True)
class GapbsKernel:
    name: str
    description: str
    instructions_per_edge: float
    locality: float
    write_fraction: float
    sync_per_kinst: float


# repro.sim.workload.npb
@dataclass(frozen=True)
class NpbApp:
    name: str
    description: str
    instructions: int
    parallel_fraction: float
    working_set_bytes: int
    mem_accesses_per_kinst: float
    locality: float
    shared_fraction: float
    write_fraction: float
    sync_per_kinst: float


# repro.sim.workload.parsec
@dataclass(frozen=True)
class ParsecApp:
    name: str
    domain: str
    instructions: int
    parallel_fraction: float
    working_set_bytes: int
    mem_accesses_per_kinst: float
    locality: float
    shared_fraction: float
    write_fraction: float
    sync_per_kinst: float
    imbalance_sensitivity: float
    access_regularity: float = 0.5
    broken: bool = False
    broken_reason: str = ""


# repro.sim.workload.phases
@dataclass(frozen=True)
class Phase:
    name: str
    instructions: int
    parallelism: int = 1
    mem_accesses_per_kinst: float = 300.0
    working_set_bytes: int = 4 * 1024 * 1024
    locality: float = 0.92
    shared_fraction: float = 0.05
    write_fraction: float = 0.30
    sync_per_kinst: float = 0.0
    imbalance_sensitivity: float = 0.15
    access_regularity: float = 0.5


# repro.sim.workload.phases
@dataclass(frozen=True)
class Workload:
    name: str
    phases: Tuple[Phase, ...] = field(default_factory=tuple)


# repro.sim.workload.spec
@dataclass(frozen=True)
class SpecBenchmark:
    name: str
    suite: str
    domain: str
    instructions: int
    working_set_bytes: int
    mem_accesses_per_kinst: float
    locality: float
    write_fraction: float
    access_regularity: float = 0.5
