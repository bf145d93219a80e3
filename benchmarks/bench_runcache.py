"""Microbenchmark: cold vs warm launches of one experiment.

Times the same cross-product experiment twice against one database:

- **cold** — empty result cache, every point simulates;
- **warm** — identical fingerprints, every point adopts its archived
  result (zero simulator executions).

The ratio is the agility claim of the caching layer in one number.
Run as a script (it is deliberately not named ``test_*`` — it measures,
it does not assert correctness):

    PYTHONPATH=src python benchmarks/bench_runcache.py

Writes ``BENCH_runcache.json`` next to the repo root and exits 1 if the
warm launch is not at least ``MIN_SPEEDUP``x faster than the cold one.
"""

from __future__ import annotations

import json
import sys
import time

from repro.art import ArtifactDB, Experiment, RunCache
from repro.guest import get_distro
from repro.resources import build_resource
from repro.sim import Gem5Build
from repro.art import (
    register_disk_image,
    register_gem5_binary,
    register_kernel_binary,
    register_repo,
)

#: The warm launch replaces simulation with blob-verified adoption; on
#: any realistic workload that is orders of magnitude, so 5x is a floor
#: that still fails loudly if adoption quietly starts simulating.
MIN_SPEEDUP = 5.0

APPS = ("ferret", "vips", "dedup", "freqmine")
CPU_COUNTS = (1, 2, 8)


def make_experiment(db: ArtifactDB, name: str) -> Experiment:
    gem5_repo = register_repo(db, "gem5", version="v20.1.0.4")
    resources_repo = register_repo(
        db, "gem5-resources", version="31924b6"
    )
    distro = get_distro("ubuntu-18.04")
    experiment = Experiment(db, name)
    experiment.add_stack(
        "ubuntu-18.04",
        gem5=register_gem5_binary(
            db, Gem5Build(version="20.1.0.4"), inputs=[gem5_repo]
        ),
        gem5_git=gem5_repo,
        run_script_git=resources_repo,
        linux_binary=register_kernel_binary(db, distro.kernel),
        disk_image=register_disk_image(
            db, build_resource("parsec", distro="ubuntu-18.04").image
        ),
    )
    experiment.fix(cpu_type="timing", memory_system="MESI_Two_Level")
    experiment.sweep(benchmark=list(APPS), num_cpus=list(CPU_COUNTS))
    return experiment


def timed_launch(db: ArtifactDB, name: str) -> float:
    experiment = make_experiment(db, name)
    # Materializing run documents is identical for both launches; the
    # cold/warm contrast is in the execution phase, so time only that.
    experiment.create_runs()
    started = time.perf_counter()
    summaries = experiment.launch(substrate="inline")
    elapsed = time.perf_counter() - started
    assert len(summaries) == len(APPS) * len(CPU_COUNTS)
    assert all(s["success"] for s in summaries)
    return elapsed


def main() -> int:
    db = ArtifactDB()
    cold = timed_launch(db, "runcache-bench-cold")
    warm = timed_launch(db, "runcache-bench-warm")
    stats = RunCache(db).stats()
    speedup = cold / warm if warm > 0 else float("inf")
    report = {
        "benchmark": "runcache",
        "runs": len(APPS) * len(CPU_COUNTS),
        "cold_seconds": round(cold, 6),
        "warm_seconds": round(warm, 6),
        "speedup": round(speedup, 2),
        "min_speedup": MIN_SPEEDUP,
        "cache_entries": stats["entries"],
        "cache_adoptions": stats["adoptions"],
    }
    with open("BENCH_runcache.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    if stats["adoptions"] < report["runs"]:
        print(
            f"FAIL: warm launch adopted {stats['adoptions']} of "
            f"{report['runs']} runs from the cache"
        )
        return 1
    if speedup < MIN_SPEEDUP:
        print(f"FAIL: warm speedup {speedup:.2f}x < {MIN_SPEEDUP}x floor")
        return 1
    print(f"OK: warm launch {speedup:.2f}x faster than cold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
