"""Regenerates **Fig 8**: the Linux boot-test cross product.

480 runs: 2 boot types x 5 LTS kernels x 4 CPU models x 3 memory systems
x 4 core counts.  The paper's findings, asserted exactly:

- kvmCPU works in all cases;
- AtomicSimpleCPU works in all supported cases (classic only);
- TimingSimpleCPU works everywhere except >1 core on classic;
- O3CPU: ~40% success, 27 kernel panics, 31 other failures of which 11
  are gem5 segfaults and 4 are 'possible deadlock detected' errors (all
  on MI_example), the rest exceeding the 24-hour timeout.
"""

import collections

import pytest

from repro.analysis import status_grid
from repro.art import (
    ArtifactDB,
    Gem5Run,
    register_disk_image,
    register_gem5_binary,
    register_kernel_binary,
    register_repo,
    run_job,
)
from repro.art.studies import BOOT_AXES
from repro.guest import BOOT_TEST_KERNEL_VERSIONS, get_kernel
from repro.resources import build_resource
from repro.sim import Gem5Build


def by_cpu(boot_sweep, cpu_type):
    return [r for r in boot_sweep if r["cpu_type"] == cpu_type]


def test_fig8_sweep_is_480_runs(boot_sweep):
    assert len(boot_sweep) == 480


def test_fig8_kvm_all_pass(boot_sweep):
    assert all(r["status"] == "ok" for r in by_cpu(boot_sweep, "kvm"))


def test_fig8_atomic_classic_only(boot_sweep):
    for record in by_cpu(boot_sweep, "atomic"):
        expected = (
            "ok" if record["memory_system"] == "classic" else "unsupported"
        )
        assert record["status"] == expected, record


def test_fig8_timing_single_core_classic_limit(boot_sweep):
    for record in by_cpu(boot_sweep, "timing"):
        if record["memory_system"] == "classic" and record["num_cpus"] > 1:
            assert record["status"] == "unsupported", record
        else:
            assert record["status"] == "ok", record


def test_fig8_o3_paper_counts(boot_sweep):
    counts = collections.Counter(
        r["status"] for r in by_cpu(boot_sweep, "o3")
    )
    assert counts["kernel_panic"] == 27
    assert counts["gem5_segfault"] == 11
    assert counts["deadlock"] == 4
    assert counts["timeout"] == 16
    # "31 cases where gem5 failed ... because of other reasons"
    assert counts["gem5_segfault"] + counts["deadlock"] + (
        counts["timeout"]
    ) == 31
    attempted = 120 - counts["unsupported"]
    assert 0.30 <= counts["ok"] / attempted <= 0.45  # "approximately 40%"


def test_fig8_deadlocks_all_mi_example(boot_sweep):
    deadlocks = [r for r in boot_sweep if r["status"] == "deadlock"]
    assert len(deadlocks) == 4
    assert all(r["memory_system"] == "MI_example" for r in deadlocks)


def test_fig8_boot_type_does_not_change_support(boot_sweep):
    """Support limits are structural; only O3's flaky cells may differ
    between kernel-only and runlevel-5 boots."""
    outcome = {}
    for record in boot_sweep:
        key = (
            record["cpu_type"],
            record["memory_system"],
            record["num_cpus"],
            record["kernel"],
        )
        outcome.setdefault(key, {})[record["boot_type"]] = record["status"]
    for key, statuses in outcome.items():
        if key[0] != "o3":
            assert statuses["init"] == statuses["systemd"], key


def test_fig8_successful_boots_have_time(boot_sweep):
    for record in boot_sweep:
        if record["status"] == "ok" and record["cpu_type"] != "kvm":
            assert record["sim_seconds"] > 0, record


def test_fig8_systemd_boot_slower_than_init(boot_sweep):
    init_runs = {
        (r["kernel"], r["cpu_type"], r["memory_system"], r["num_cpus"]):
        r["sim_seconds"]
        for r in boot_sweep
        if r["boot_type"] == "init" and r["status"] == "ok"
    }
    for record in boot_sweep:
        if record["boot_type"] != "systemd" or record["status"] != "ok":
            continue
        key = (
            record["kernel"],
            record["cpu_type"],
            record["memory_system"],
            record["num_cpus"],
        )
        if key in init_runs:
            assert record["sim_seconds"] > init_runs[key], key


def test_fig8_render(boot_sweep, capsys, benchmark):
    columns = [
        f"{mem[:2]}{cores}"
        for mem in BOOT_AXES["memory_system"]
        for cores in BOOT_AXES["num_cpus"]
    ]

    def render():
        blocks = []
        for boot in BOOT_AXES["boot_type"]:
            for cpu in BOOT_AXES["cpu_type"]:
                cells = {}
                for record in boot_sweep:
                    if (
                        record["boot_type"] != boot
                        or record["cpu_type"] != cpu
                    ):
                        continue
                    column = (
                        f"{record['memory_system'][:2]}"
                        f"{record['num_cpus']}"
                    )
                    cells[(record["kernel"], column)] = record["status"]
                blocks.append(
                    status_grid(
                        cells,
                        BOOT_TEST_KERNEL_VERSIONS,
                        columns,
                        title=f"boot={boot} cpu={cpu}",
                    )
                )
        return "\n\n".join(blocks)

    grids = benchmark(render)
    with capsys.disabled():
        print("\nFig 8: boot-test grids "
              "(cl=classic, MI=MI_example, ME=MESI_Two_Level)")
        print(grids)


def test_bench_single_boot_test(benchmark):
    """Times one boot test through the full gem5art pipeline."""
    db = ArtifactDB()
    repo = register_repo(db, "gem5")
    gem5 = register_gem5_binary(db, Gem5Build(), inputs=[repo])
    kernel = register_kernel_binary(db, get_kernel("5.4.49"))
    disk = register_disk_image(db, build_resource("boot-exit").image)

    def one_boot():
        run = Gem5Run.create_fs_run(
            db, gem5, repo, repo, kernel, disk,
            cpu_type="atomic", num_cpus=1, boot_type="systemd",
        )
        return run_job(run)

    summary = benchmark(one_boot)
    assert summary["simulation_status"] == "ok"
