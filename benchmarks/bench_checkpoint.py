"""Macrobenchmark: staged checkpoint fan-out vs full boots on Fig 8.

Builds a Fig-8-shaped sweep — 24 variants sharing 4 boot prefixes
(each prefix is a unique ``(num_cpus, memory_system, boot_type)``
platform shape; variants within a prefix differ only in measured-region
axes: CPU model, memory technology, channel count) — and runs it twice
through the scheduler on the process substrate:

- **baseline** — every variant boots Linux in full
  (``use_checkpoints=False``);
- **checkpointed** — the staged pipeline: one ``take_boot_checkpoint``
  job per unique prefix, then the variant fan-out restores from the
  cohort's checkpoint, shipped with payload interning
  (``use_checkpoints=True``).

Each variant job re-simulates ``REPEATS`` times (work amplification, as
in ``bench_procpool``), so per-job transport overhead cannot masquerade
as simulation speedup.  Both phases must produce identical statuses and
workload timings — a restored run that *measures* differently from a
booted one would be a correctness bug, not a win.

Also records the transport story: bytes actually shipped to workers
(interned) vs the naive one-full-pickle-per-job encoding.

Run as a script (deliberately not named ``test_*``):

    PYTHONPATH=src python benchmarks/bench_checkpoint.py

Writes ``BENCH_checkpoint.json`` and exits 1 if the checkpointed sweep
is not at least ``MIN_SPEEDUP``x faster — enforced only on hosts with
``MIN_CORES_FOR_FLOOR`` effective cores (CI's 1-core containers get the
report without the gate; the determinism and single-boot assertions are
enforced everywhere).
"""

from __future__ import annotations

import json
import pickle
import sys
import time

from repro import telemetry
from repro.art import (
    ArtifactDB,
    Gem5Run,
    InputResolver,
    register_disk_image,
    register_gem5_binary,
    register_kernel_binary,
    register_repo,
    run_jobs_scheduler,
)
from repro.art.procjobs import envelope_for_run
from repro.common.hostinfo import effective_cores
from repro.guest import get_kernel
from repro.resources import build_resource
from repro.sim import Gem5Build

#: The tentpole claim: restoring a shared boot checkpoint must cut the
#: sweep's wall clock by at least this factor.
MIN_SPEEDUP = 5.0

#: Cores below which the speedup floor is reported but not enforced.
MIN_CORES_FOR_FLOOR = 4

WORKERS = 4
REPEATS = 4000
KERNEL = "4.19.83"

#: Boot prefixes: each is one (num_cpus, memory_system, boot_type)
#: platform shape — one full boot per prefix in the checkpointed phase.
PREFIX_SHAPES = (
    (1, "MI_example", "init"),
    (2, "MESI_Two_Level", "init"),
    (4, "MI_example", "systemd"),
    (8, "MESI_Two_Level", "systemd"),
    (1, "MESI_Two_Level", "systemd"),
    (2, "MI_example", "systemd"),
    (4, "MESI_Two_Level", "init"),
    (8, "MI_example", "init"),
)

#: Measured-region variants per prefix: (cpu_type, memory_tech,
#: memory_channels).  Detailed CPUs dominate, as in a real Fig-8 sweep
#: where kvm boots feed timing/O3 measurement runs.
VARIANT_SHAPES = (
    ("timing", "DDR3_1600_8x8", 1),
    ("timing", "DDR4_2400_16x4", 1),
    ("timing", "DDR3_1600_8x8", 2),
    ("timing", "DDR4_2400_16x4", 2),
    ("kvm", "DDR3_1600_8x8", 1),
    ("kvm", "DDR4_2400_16x4", 1),
)


def build_runs(db: ArtifactDB):
    gem5_repo = register_repo(db, "gem5", version="v20.1.0.4")
    resources_repo = register_repo(
        db, "gem5-resources", version="c5f5c70"
    )
    gem5_binary = register_gem5_binary(
        db, Gem5Build(version="20.1.0.4"), inputs=[gem5_repo]
    )
    disk = register_disk_image(
        db, build_resource("boot-exit").image, inputs=[resources_repo]
    )
    kernel = register_kernel_binary(db, get_kernel(KERNEL))
    runs = []
    for cores, memory_system, boot_type in PREFIX_SHAPES:
        for cpu, tech, channels in VARIANT_SHAPES:
            runs.append(
                Gem5Run.create_fs_run(
                    db,
                    gem5_artifact=gem5_binary,
                    gem5_git_artifact=gem5_repo,
                    run_script_git_artifact=resources_repo,
                    linux_binary_artifact=kernel,
                    disk_image_artifact=disk,
                    cpu_type=cpu,
                    num_cpus=cores,
                    memory_system=memory_system,
                    boot_type=boot_type,
                    memory_tech=tech,
                    memory_channels=channels,
                )
            )
    return runs


def naive_transport_bytes(runs) -> int:
    """Bytes the sweep would ship with one full pickle per job — the
    pool's wire format without interning."""
    total = 0
    resolver = InputResolver()
    for run in runs:
        envelope = envelope_for_run(
            run, resolver.wire(run), repeats=REPEATS, intern=False
        )
        wire = pickle.dumps(
            {
                "job": {
                    "target": envelope.target,
                    "args": envelope.args,
                    "kwargs": envelope.kwargs,
                    "task_id": envelope.task_id,
                    "telemetry": envelope.telemetry,
                },
                "shared": {},
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        total += len(wire)
    return total


def run_phase(checkpointed: bool) -> dict:
    db = ArtifactDB()
    runs = build_runs(db)
    telemetry.enable()
    try:
        started = time.perf_counter()
        summaries = run_jobs_scheduler(
            runs,
            worker_count=WORKERS,
            substrate="processes",
            use_cache=False,
            use_checkpoints=checkpointed,
            repeats=REPEATS,
        )
        elapsed = time.perf_counter() - started
        metrics = telemetry.get_metrics()
        transport = metrics.counter("transport_bytes_total").value()
        boots = sum(
            sample["value"]
            for sample in metrics.counter(
                "checkpoint_boots_total"
            ).samples()
        )
        hits = sum(
            sample["value"]
            for sample in metrics.counter(
                "checkpoint_hits_total"
            ).samples()
        )
    finally:
        telemetry.disable()
    outcomes = []
    for run, summary in zip(runs, summaries):
        results = db.get_run(run.run_id).get("results") or {}
        outcomes.append(
            (
                summary.get("simulation_status"),
                results.get("workload_seconds"),
            )
        )
    return {
        "seconds": elapsed,
        "naive_bytes": naive_transport_bytes(runs),
        "transport_bytes": int(transport),
        "boots": int(boots),
        "restores": int(hits),
        "outcomes": outcomes,
    }


def main() -> int:
    cores = effective_cores()
    baseline = run_phase(checkpointed=False)
    staged = run_phase(checkpointed=True)
    speedup = (
        baseline["seconds"] / staged["seconds"]
        if staged["seconds"] > 0
        else float("inf")
    )
    bytes_reduction = (
        staged["naive_bytes"] / staged["transport_bytes"]
        if staged["transport_bytes"] > 0
        else float("inf")
    )
    floor_enforced = cores >= MIN_CORES_FOR_FLOOR
    statuses = sorted({status for status, _ in staged["outcomes"]})
    report = {
        "benchmark": "checkpoint",
        "variants": len(PREFIX_SHAPES) * len(VARIANT_SHAPES),
        "boot_prefixes": len(PREFIX_SHAPES),
        "repeats": REPEATS,
        "workers": WORKERS,
        "effective_cores": cores,
        "baseline_seconds": round(baseline["seconds"], 3),
        "checkpointed_seconds": round(staged["seconds"], 3),
        "speedup": round(speedup, 2),
        "min_speedup": MIN_SPEEDUP,
        "floor_enforced": floor_enforced,
        "boots": staged["boots"],
        "restores": staged["restores"],
        "statuses": statuses,
        "naive_transport_bytes": staged["naive_bytes"],
        "transport_bytes": staged["transport_bytes"],
        "baseline_transport_bytes": baseline["transport_bytes"],
        "transport_bytes_reduction": round(bytes_reduction, 2),
        "outcomes_identical": (
            baseline["outcomes"] == staged["outcomes"]
        ),
    }
    with open("BENCH_checkpoint.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    failed = False
    if not report["outcomes_identical"]:
        print(
            "FAIL: restored variants produced different statuses or "
            "workload timings than full boots"
        )
        failed = True
    if statuses != ["ok"]:
        print(f"FAIL: sweep statuses {statuses} are not all ok")
        failed = True
    if staged["boots"] != len(PREFIX_SHAPES):
        print(
            f"FAIL: {staged['boots']} boots for "
            f"{len(PREFIX_SHAPES)} prefixes (expected exactly one each)"
        )
        failed = True
    if bytes_reduction < 1.0:
        print(
            "FAIL: interned transport shipped more bytes than "
            "the naive per-job encoding"
        )
        failed = True
    if floor_enforced and speedup < MIN_SPEEDUP:
        print(
            f"FAIL: checkpoint fan-out {speedup:.2f}x < {MIN_SPEEDUP}x "
            f"floor on {cores} cores"
        )
        failed = True
    if failed:
        return 1
    if not floor_enforced:
        print(
            f"OK: {speedup:.2f}x measured on {cores} core(s); "
            f"{MIN_SPEEDUP}x floor requires >= {MIN_CORES_FOR_FLOOR} "
            "cores and was not enforced"
        )
    else:
        print(
            f"OK: checkpoint fan-out {speedup:.2f}x faster, "
            f"{bytes_reduction:.1f}x fewer transport bytes"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
