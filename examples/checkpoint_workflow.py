#!/usr/bin/env python3
"""The hack-back checkpoint workflow, plus a recorded experiment and a
shareable report.

Demonstrates three of the framework's agility features together:

1. boot Ubuntu once under the fast kvm CPU and take a checkpoint (what
   the Table I ``hack-back`` resource exists for);
2. fan out detailed-CPU measurements that *restore* the checkpoint —
   skipping every boot;
3. render the experiment's reproducibility report and export the whole
   thing as a verified archive another researcher can import.

Run with:  python examples/checkpoint_workflow.py
"""

import tempfile

from repro.analysis import experiment_report
from repro.art import (
    ArtifactDB,
    Experiment,
    export_archive,
    register_disk_image,
    register_gem5_binary,
    register_kernel_binary,
    register_repo,
    verify_archive,
)
from repro.guest import get_distro
from repro.resources import build_resource
from repro.sim import Gem5Build, Gem5Simulator, SystemConfig


def main() -> None:
    distro = get_distro("20.04")
    image = build_resource("parsec", distro=distro.key).image

    # -- 1. boot once under kvm, checkpoint -------------------------------
    kvm = Gem5Simulator(Gem5Build(), SystemConfig(cpu_type="kvm"))
    checkpoint, boot_result = kvm.take_boot_checkpoint(
        distro.kernel_version, image
    )
    print(f"checkpoint {checkpoint.checkpoint_id[:12]} taken after "
          f"{boot_result.boot_seconds:.4f}s simulated boot (kvm)")

    # -- 2. restore under a detailed CPU, many times ----------------------
    timing = Gem5Simulator(Gem5Build(), SystemConfig(cpu_type="timing"))
    for app in ("blackscholes", "swaptions", "ferret"):
        cold = timing.run_fs(
            distro.kernel_version, image, benchmark=app
        )
        warm = timing.run_fs(
            distro.kernel_version, image, benchmark=app,
            restore_from=checkpoint,
        )
        saved = cold.boot_seconds - warm.boot_seconds
        print(f"  {app:<13} workload {warm.workload_seconds:.4f}s, "
              f"restored boot saved {saved:.4f}s of detailed simulation")

    # -- 3. the same study as a recorded experiment + archive -------------
    db = ArtifactDB()
    gem5_repo = register_repo(db, "gem5", version="v20.1.0.4")
    resources_repo = register_repo(db, "gem5-resources", version="r1")
    experiment = Experiment(db, "checkpointed-parsec")
    experiment.add_stack(
        distro.key,
        gem5=register_gem5_binary(db, Gem5Build(), inputs=[gem5_repo]),
        gem5_git=gem5_repo,
        run_script_git=resources_repo,
        linux_binary=register_kernel_binary(db, distro.kernel),
        disk_image=register_disk_image(db, image),
    )
    experiment.fix(cpu_type="timing", memory_system="MESI_Two_Level")
    experiment.sweep(
        benchmark=["blackscholes", "swaptions", "ferret"], num_cpus=[1, 8]
    )
    experiment.launch(workers=4)

    print("\n" + experiment_report(db))

    with tempfile.TemporaryDirectory() as tmp:
        counts = export_archive(db, tmp)
        verify_archive(tmp)
        print(f"archive exported and verified: {counts['artifacts']} "
              f"artifacts, {counts['runs']} runs, {counts['files']} files")


if __name__ == "__main__":
    main()
