"""Regenerates **Fig 8**: the Linux boot-test cross product.

480 runs: 2 boot types x 5 LTS kernels x 4 CPU models x 3 memory systems
x 4 core counts.  The paper's findings, asserted exactly:

- kvmCPU works in all cases;
- AtomicSimpleCPU works in all supported cases (classic only);
- TimingSimpleCPU works everywhere except >1 core on classic;
- O3CPU: ~40% success, 27 kernel panics, 31 other failures of which 11
  are gem5 segfaults and 4 are 'possible deadlock detected' errors (all
  on MI_example), the rest exceeding the 24-hour timeout.

The counts are the gates of ``examples/paper-full.yaml``'s
``outcomes-by-cpu`` and ``outcomes-by-memory`` stages (the session
fixture fails unless every gate passes); this file asserts what a count
cannot: which cells they are, and how long the boots take.
"""

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
from repro.guest import get_kernel
from repro.resources import build_resource
from repro.sim import Gem5Build


@pytest.fixture(scope="module")
def boot_sweep(paper):
    return paper["boot"]


def test_fig8_timing_single_core_classic_limit(boot_sweep):
    for record in boot_sweep:
        if record["cpu_type"] != "timing":
            continue
        if record["memory_system"] == "classic" and record["num_cpus"] > 1:
            assert record["outcome"] == "unsupported", record
        else:
            assert record["outcome"] == "ok", record


def test_fig8_boot_type_does_not_change_support(boot_sweep):
    """Support limits are structural; only O3's flaky cells may differ
    between kernel-only and runlevel-5 boots."""
    outcome = {}
    for record in boot_sweep:
        key = (
            record["cpu_type"],
            record["memory_system"],
            record["num_cpus"],
            record["stack"],
        )
        outcome.setdefault(key, {})[record["boot_type"]] = record["outcome"]
    for key, statuses in outcome.items():
        if key[0] != "o3":
            assert statuses["init"] == statuses["systemd"], key


def test_fig8_successful_boots_have_time(boot_sweep):
    for record in boot_sweep:
        if record["outcome"] == "ok" and record["cpu_type"] != "kvm":
            assert record["sim_seconds"] > 0, record


def test_fig8_systemd_boot_slower_than_init(boot_sweep):
    init_runs = {
        (r["stack"], r["cpu_type"], r["memory_system"], r["num_cpus"]):
        r["sim_seconds"]
        for r in boot_sweep
        if r["boot_type"] == "init" and r["outcome"] == "ok"
    }
    for record in boot_sweep:
        if record["boot_type"] != "systemd" or record["outcome"] != "ok":
            continue
        key = (
            record["stack"],
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
                    cells[(record["stack"], column)] = record["outcome"]
                blocks.append(
                    status_grid(
                        cells,
                        list(dict.fromkeys(r["stack"] for r in boot_sweep)),
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
