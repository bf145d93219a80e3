"""The record classes keep the ``@dataclass`` contract.

Every class that was a dataclass is now a plain class on
:mod:`repro.common.records`.  For each one and a few argument sets, the
old definition (``reference_records.py``) is the oracle: two records are
equal exactly when the dataclass instances are, a record hashes like the
dataclass (or raises ``TypeError`` where it did), prints like it, refuses
assignment when it was frozen, and survives ``pickle`` and
``copy.deepcopy``.

Four classes lost fields that no caller set (``SystemConfig``'s clock,
caches and prefetcher strength, ``GPUKernel.sregs_per_wavefront``,
``GCNDockerEnvironment.name`` and ``JobEnvelope.kwargs``): they are class
constants or gone now, so their ``repr`` and hash cover fewer fields;
equality still agrees, and equal records still hash alike.
"""

import copy
import dataclasses
import importlib
import pickle

import pytest

from repro.common.errors import ValidationError
from repro.common.records import Frozen, Record
from repro.gpu.kernels import GPUKernel
from repro.sim.faults import SimulationStatus
from tests.common import reference_records as reference

#: Classes whose fields changed with the conversion.
CHANGED = {
    "SystemConfig", "GPUKernel", "GCNDockerEnvironment", "JobEnvelope",
}

_KERNEL = GPUKernel(name="k", num_workgroups=4)

#: (module, class, argument sets).  Each set builds two records that
#: must be equal; different sets must differ where the reference does.
CASES = [
    ("repro.analysis.dataflow.callgraph", "FunctionInfo", [
        dict(qualname="m.f", module="m", node="def f"),
        dict(qualname="m.C.f", module="m", node="def f", cls_name="C"),
    ]),
    ("repro.analysis.dataflow.callgraph", "ClassInfo", [
        dict(qualname="m.C", module="m", node="class C"),
        dict(qualname="m.D", module="m", node="class D"),
    ]),
    ("repro.analysis.dataflow.graph", "ImportEdge", [
        dict(source="a", target="b", lineno=1),
        dict(source="a", target="b", lineno=1, type_checking=True),
        dict(source="a", target="b", lineno=2, toplevel=False),
    ]),
    ("repro.analysis.engine", "Finding", [
        dict(file="f.py", line=1, col=0, rule_id="DET-TIME",
             severity="error", message="m"),
        dict(file="f.py", line=1, col=0, rule_id="DET-TIME",
             severity="error", message="m", snippet="time.time()"),
    ]),
    ("repro.analysis.series", "Series", [
        dict(name="s"),
        dict(name="s", values={"a": 1.0}),
    ]),
    ("repro.art.artifact", "Artifact", [
        dict(name="a", typ="git repo", path="p", hash="h", id="i",
             command="", cwd=".", documentation="", inputs=[], git={},
             file_id=None, metadata={}, _db=None),
        dict(name="a", typ="git repo", path="p", hash="h", id="i",
             command="c", cwd=".", documentation="d", inputs=["x"],
             git={"url": "u"}, file_id="f", metadata={"k": 1}, _db=None),
    ]),
    ("repro.art.run", "Gem5Run", [
        dict(run_id="r", kind="fs", artifacts={"gem5": "a"},
             params={"num_cpus": 1}, timeout=60.0, db="db", spec="spec",
             fingerprint="fp"),
        dict(run_id="r", kind="fs", artifacts={"gem5": "a"},
             params={"num_cpus": 1}, timeout=60.0, db="other", spec="spec",
             fingerprint="fp", results={"ok": True}),
    ]),
    ("repro.art.run", "Attempt", [
        dict(span="span", started_at_wall="t0"),
        dict(span="span", started_at_wall="t1"),
    ]),
    ("repro.art.spec", "RunSpec", [
        dict(kind="fs", artifacts={"gem5": "h1"}),
        dict(kind="fs", artifacts={"gem5": "h1"}, params={"n": 1},
             build={"isa": "X86"}),
    ]),
    ("repro.chaos.injector", "FaultRule", [
        dict(point="db.insert"),
        dict(point="db.*", action="delay", probability=0.5, times=2,
             after=1, delay=0.1, error="e"),
        dict(point="db.insert", match={"collection": "runs"}),
    ]),
    ("repro.chaos.injector", "_RuleState", [
        dict(rule="rule", stream="stream"),
        dict(rule="rule", stream="stream", seen=3, fired=1),
    ]),
    ("repro.common.gitinfo", "GitInfo", [
        dict(url="u", revision="r1"),
        dict(url="u", revision="r2"),
    ]),
    ("repro.gpu.config", "GPUConfig", [
        dict(),
        dict(num_cus=8, memory_latency_cycles=200),
    ]),
    ("repro.gpu.device", "GPURunResult", [
        dict(kernel_name="k", allocator="simple", shader_ticks=1.0,
             compute_ticks=0.5, sync_ticks=0.25, dispatch_ticks=0.25,
             occupancy_per_simd=2, stats={"a": 1.0}),
        dict(kernel_name="k", allocator="dynamic", shader_ticks=1.0,
             compute_ticks=0.5, sync_ticks=0.25, dispatch_ticks=0.25,
             occupancy_per_simd=4, stats={}),
    ]),
    ("repro.gpu.kernels", "GPUKernel", [
        dict(name="k", num_workgroups=4),
        dict(name="k", num_workgroups=4, wavefronts_per_workgroup=2,
             vregs_per_wavefront=32, lds_bytes_per_workgroup=64,
             instructions_per_wavefront=100, memory_intensity=0.3,
             dependency_density=0.2, sync_ops_per_wavefront=1.0,
             critical_section_cycles=10.0, contention_coefficient=0.1,
             per_cu_sync=True),
    ]),
    ("repro.gpu.workloads.registry", "GPUWorkload", [
        dict(name="w", suite="s", input_size="i", kernel=_KERNEL,
             expected_dynamic="better"),
        dict(name="w", suite="s", input_size="i", kernel=_KERNEL,
             expected_dynamic="worse"),
    ]),
    ("repro.guest.compilers", "Compiler", [
        dict(name="gcc", version="7.4", instruction_scale=1.0,
             memory_cpi_scale=1.0),
        dict(name="gcc", version="9.3", instruction_scale=0.9,
             memory_cpi_scale=1.0),
    ]),
    ("repro.guest.distros", "UbuntuRelease", [
        dict(name="ubuntu", version="18.04", codename="bionic",
             released="2018-04", kernel_version="4.15.18",
             compiler_key="gcc-7.4", init_instructions=10,
             base_packages=("a", "b")),
        dict(name="ubuntu", version="20.04", codename="focal",
             released="2020-04", kernel_version="5.4.51",
             compiler_key="gcc-9.3", init_instructions=12,
             base_packages=("a",)),
    ]),
    ("repro.guest.kernels", "LinuxKernel", [
        dict(version="4.19.83", series="4.19", lts=True,
             boot_phases=(("early", 10), ("init", 20)),
             scheduler_efficiency=0.9),
        dict(version="4.19.83", series="4.19", lts=True,
             boot_phases=(("early", 10), ("init", 20)),
             scheduler_efficiency=0.9, syscall_cost_scale=1.2),
    ]),
    ("repro.packer.build", "BuildResult", [
        dict(image="image", log=["a"]),
        dict(image="image", log=[]),
    ]),
    ("repro.pipeline.manifest", "StageSpec", [
        dict(name="a", kind="python"),
        dict(name="a", kind="python", inputs=("b",), params={"x": 1},
             gates=({"kind": "all_terminal"},)),
    ]),
    ("repro.pipeline.manifest", "Manifest", [
        dict(name="m", description="d", execution={"workers": 1},
             stages=()),
        dict(name="m", description="d", execution={"workers": 1},
             stages=(), source_path="paper.yaml"),
    ]),
    ("repro.pipeline.stages", "StageContext", [
        dict(db="db", pipeline_id="p", pipeline_name="n", stage="s"),
        dict(db="db", pipeline_id="p", pipeline_name="n", stage="s",
             inputs={"a": {}}, execution={"workers": 2}),
    ]),
    ("repro.resources.catalog", "Resource", [
        dict(name="r", rtype="Benchmark", description="d"),
        dict(name="r", rtype="Benchmark", description="d",
             redistributable=False, requires_isa="X86"),
    ]),
    ("repro.resources.catalog", "Gem5Test", [
        dict(name="t", description="d"),
        dict(name="t", description="d", requires_isa="RISCV"),
    ]),
    ("repro.resources.environment", "GCNDockerEnvironment", [dict()]),
    ("repro.resources.selftest", "TestOutcome", [
        dict(test_name="t", status="pass"),
        dict(test_name="t", status="fail", detail="why"),
    ]),
    ("repro.scheduler.procpool", "JobEnvelope", [
        dict(target="math:factorial", task_id="t1"),
        dict(target="math:factorial", args=(3,), task_id="t1",
             telemetry=True, shared={"h": 1}, timeout=2.0),
    ]),
    ("repro.sim.buildinfo", "Gem5Build", [
        dict(),
        dict(version="21.0", isa="GCN3_X86", variant="fast"),
    ]),
    ("repro.sim.checkpoint", "Checkpoint", [
        dict(kernel_version="4.19.83", boot_type="systemd",
             disk_image_hash="d", num_cpus=2, memory_system="classic",
             boot_seconds=1.5, boot_instructions=100),
        dict(kernel_version="4.19.83", boot_type="init",
             disk_image_hash="d", num_cpus=2, memory_system="classic",
             boot_seconds=1.5, boot_instructions=100),
    ]),
    ("repro.sim.config", "MemoryTech", [
        dict(name="DDR3", access_latency_ns=45.0, bandwidth_gbps=12.8),
        dict(name="HBM", access_latency_ns=30.0, bandwidth_gbps=64.0),
    ]),
    ("repro.sim.config", "CacheConfig", [
        dict(size_bytes=1024, assoc=8, latency_cycles=2),
        dict(size_bytes=2048, assoc=8, latency_cycles=2),
    ]),
    ("repro.sim.config", "SystemConfig", [
        dict(),
        dict(cpu_type="o3", num_cpus=8, memory_system="MESI_Two_Level",
             memory_tech="HBM_1000_4H_1x64", memory_channels=2,
             prefetcher=True),
        dict(cpu_type="timing"),
    ]),
    ("repro.sim.cpu.models", "CpuModel", [
        dict(name="kvm", base_cpi=0.0, memory_exposure=0.0,
             models_timing=False),
        dict(name="atomic", base_cpi=1.0, memory_exposure=0.0),
    ]),
    ("repro.sim.engine", "ExecutionModifiers", [
        dict(),
        dict(instruction_scale=1.1, memory_stall_scale=0.9,
             scheduler_efficiency=0.8, syscall_cost_scale=1.2),
    ]),
    ("repro.sim.engine", "ExecutionOutcome", [
        dict(ticks=10, instructions=5, busy_cycles=4.0, total_cycles=8.0),
        dict(ticks=10, instructions=5, busy_cycles=4.0, total_cycles=9.0),
    ]),
    ("repro.sim.faults", "FaultVerdict", [
        dict(fault=SimulationStatus.OK),
        dict(fault=SimulationStatus.KERNEL_PANIC, reason="old kernel"),
    ]),
    ("repro.sim.m5ops", "M5OpLog", [dict()]),
    ("repro.sim.mem.hierarchy", "MemoryTimings", [
        dict(amat_cycles=3.0, dram_access_ratio=0.1, l1_miss_ratio=0.05),
        dict(amat_cycles=3.0, dram_access_ratio=0.1, l1_miss_ratio=0.05,
             dram_stall_cycles=1.0),
    ]),
    ("repro.sim.simulator", "SimulationResult", [
        dict(status=SimulationStatus.OK),
        dict(status=SimulationStatus.OK, reason="r", stats={"a": 1.0},
             sim_seconds=1.0, boot_seconds=0.5, workload_seconds=0.5,
             instructions=10, config_summary="c", workload_name="w",
             m5ops=["exit"]),
    ]),
    ("repro.sim.workload.gapbs", "GapbsKernel", [
        dict(name="bfs", description="d", instructions_per_edge=10.0,
             locality=0.5, write_fraction=0.1, sync_per_kinst=0.2),
        dict(name="pr", description="d", instructions_per_edge=10.0,
             locality=0.5, write_fraction=0.1, sync_per_kinst=0.2),
    ]),
    ("repro.sim.workload.npb", "NpbApp", [
        dict(name="cg", description="d", instructions=100,
             parallel_fraction=0.9, working_set_bytes=1024,
             mem_accesses_per_kinst=300.0, locality=0.9,
             shared_fraction=0.1, write_fraction=0.2, sync_per_kinst=0.1),
        dict(name="ep", description="d", instructions=100,
             parallel_fraction=0.9, working_set_bytes=1024,
             mem_accesses_per_kinst=300.0, locality=0.9,
             shared_fraction=0.1, write_fraction=0.2, sync_per_kinst=0.1),
    ]),
    ("repro.sim.workload.parsec", "ParsecApp", [
        dict(name="vips", domain="media", instructions=100,
             parallel_fraction=0.9, working_set_bytes=1024,
             mem_accesses_per_kinst=300.0, locality=0.9,
             shared_fraction=0.1, write_fraction=0.2, sync_per_kinst=0.1,
             imbalance_sensitivity=0.2),
        dict(name="vips", domain="media", instructions=100,
             parallel_fraction=0.9, working_set_bytes=1024,
             mem_accesses_per_kinst=300.0, locality=0.9,
             shared_fraction=0.1, write_fraction=0.2, sync_per_kinst=0.1,
             imbalance_sensitivity=0.2, access_regularity=0.7,
             broken=True, broken_reason="r"),
    ]),
    ("repro.sim.workload.phases", "Phase", [
        dict(name="p", instructions=100),
        dict(name="p", instructions=100, parallelism=4,
             mem_accesses_per_kinst=200.0, working_set_bytes=1024,
             locality=0.5, shared_fraction=0.2, write_fraction=0.1,
             sync_per_kinst=1.0, imbalance_sensitivity=0.3,
             access_regularity=0.9),
    ]),
    ("repro.sim.workload.phases", "Workload", [
        dict(name="w", phases=("p",)),
        dict(name="w", phases=("p", "q")),
    ]),
    ("repro.sim.workload.spec", "SpecBenchmark", [
        dict(name="mcf", suite="spec-2017", domain="d", instructions=100,
             working_set_bytes=1024, mem_accesses_per_kinst=300.0,
             locality=0.5, write_fraction=0.1),
        dict(name="mcf", suite="spec-2017", domain="d", instructions=100,
             working_set_bytes=1024, mem_accesses_per_kinst=300.0,
             locality=0.5, write_fraction=0.1, access_regularity=0.2),
    ]),
]

IDS = [name for _module, name, _sets in CASES]


def _classes(module, name):
    return getattr(importlib.import_module(module), name), getattr(
        reference, name
    )


def _pairs(module, name, sets):
    """(record, reference) for every argument set, each built twice."""
    cls, ref = _classes(module, name)
    return [(cls(**kwargs), ref(**kwargs)) for kwargs in sets for _ in "ab"]


def test_every_dataclass_has_a_case():
    referenced = {
        name for name, value in vars(reference).items()
        if dataclasses.is_dataclass(value)
    }
    assert sorted(IDS) == sorted(referenced)
    assert len(IDS) == 46


@pytest.mark.parametrize("module, name, sets", CASES, ids=IDS)
def test_fields_and_kind_match_the_dataclass(module, name, sets):
    cls, ref = _classes(module, name)
    frozen = ref.__dataclass_params__.frozen
    assert issubclass(cls, Frozen) is frozen
    assert issubclass(cls, Record)
    old = tuple(field.name for field in dataclasses.fields(ref))
    if name in CHANGED:
        assert set(cls._fields) < set(old)
    else:
        assert cls._fields == old


@pytest.mark.parametrize("module, name, sets", CASES, ids=IDS)
def test_equality_agrees_with_the_dataclass(module, name, sets):
    pairs = _pairs(module, name, sets)
    for record, ref in pairs:
        for other, other_ref in pairs:
            assert (record == other) is (ref == other_ref)
            assert (record != other) is (ref != other_ref)
        # Equal only to its own class: not to the dataclass, not to
        # the tuple of its values, not to a subclass with equal fields.
        assert record != ref and ref != record
        assert record != tuple(getattr(record, f) for f in record._fields)
    cls, ref_cls = _classes(module, name)
    for kwargs in sets:
        sub = type(name, (cls,), {})(**kwargs)
        ref_sub = type(name, (ref_cls,), {})(**kwargs)
        assert (cls(**kwargs) == sub) is (ref_cls(**kwargs) == ref_sub)
        assert cls(**kwargs) != sub


def _hash(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("module, name, sets", CASES, ids=IDS)
def test_hash_agrees_with_the_dataclass(module, name, sets):
    pairs = _pairs(module, name, sets)
    for record, ref in pairs:
        if name in CHANGED:
            assert (_hash(record) is TypeError) is (_hash(ref) is TypeError)
        else:
            assert _hash(record) == _hash(ref)
    for record, _ in pairs:
        for other, _ in pairs:
            if record == other and _hash(record) is not TypeError:
                assert hash(record) == hash(other)


def test_run_spec_is_unhashable_like_the_dataclass():
    record, ref = _pairs(*CASES[IDS.index("RunSpec")])[0]
    with pytest.raises(TypeError):
        hash(ref)
    with pytest.raises(TypeError):
        hash(record)


@pytest.mark.parametrize("module, name, sets", CASES, ids=IDS)
def test_repr_agrees_with_the_dataclass(module, name, sets):
    for record, ref in _pairs(module, name, sets):
        if name not in CHANGED:
            assert repr(record) == repr(ref)
            continue
        # The dataclass's rendering of the fields that remain.
        shown = ", ".join(
            f"{field}={getattr(ref, field)!r}" for field in record._fields
        )
        assert repr(record) == f"{name}({shown})"


def test_gem5_run_repr_leaves_out_db_and_spec():
    record, _ = _pairs(*CASES[IDS.index("Gem5Run")])[0]
    assert "db=" not in repr(record) and "spec=" not in repr(record)
    assert repr(record).startswith("Gem5Run(run_id='r', kind='fs', ")


@pytest.mark.parametrize("module, name, sets", CASES, ids=IDS)
def test_frozen_records_refuse_assignment(module, name, sets):
    for record, ref in _pairs(module, name, sets)[:1]:
        field = record._fields[0]
        if not isinstance(record, Frozen):
            setattr(record, field, getattr(record, field))
            continue
        for target in (record, ref):
            with pytest.raises(AttributeError):
                setattr(target, field, None)
            with pytest.raises(AttributeError):
                delattr(target, field)
            with pytest.raises(AttributeError):
                target.not_a_field = 1


@pytest.mark.parametrize("module, name, sets", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(module, name, sets):
    for record, _ in _pairs(module, name, sets):
        for copied in (
            pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
        ):
            assert type(copied) is type(record)
            assert copied == record
            assert repr(copied) == repr(record)


def test_a_checkpoint_stays_equal_once_its_id_is_read():
    module, name, sets = CASES[IDS.index("Checkpoint")]
    cls, _ = _classes(module, name)
    read, fresh = cls(**sets[0]), cls(**sets[0])
    before = hash(read)
    assert read.checkpoint_id == fresh.checkpoint_id
    assert "checkpoint_id" in vars(read)
    assert read == fresh and hash(read) == before == hash(fresh)
    assert "checkpoint_id" not in repr(read)
    for copied in (pickle.loads(pickle.dumps(read)), copy.deepcopy(read)):
        assert copied == fresh
        assert copied.checkpoint_id == fresh.checkpoint_id


def test_replace_builds_a_checked_copy_like_dataclasses_replace():
    module, name, sets = CASES[IDS.index("Phase")]
    cls, ref = _classes(module, name)
    record = cls(**sets[1])
    changed = record.replace(instructions=7, parallelism=2)
    expected = dataclasses.replace(ref(**sets[1]), instructions=7,
                                   parallelism=2)
    assert repr(changed) == repr(expected)
    assert record.instructions == 100  # the original is untouched
    with pytest.raises(ValidationError):
        record.replace(parallelism=0)
