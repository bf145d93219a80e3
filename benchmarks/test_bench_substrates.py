"""Micro-benchmarks of the substrates gem5art leans on.

Not a paper figure — these keep the infrastructure honest: artifact
hashing/dedup cost, database query latency at boot-test scale, event-queue
throughput, disk-image hashing, and scheduler dispatch overhead.
"""

import pytest

from repro.art import ArtifactDB, Artifact
from repro.db import Collection
from repro.resources import build_resource
from repro.scheduler import JobEnvelope, ProcessPool
from repro.sim.events import EventQueue


def test_bench_artifact_registration_and_dedup(benchmark):
    db = ArtifactDB()
    payload = b"x" * 65536

    def register():
        return Artifact.register_artifact(
            db, name="blob", typ="file", path="p", content=payload
        )

    artifact = benchmark(register)
    assert artifact.hash
    assert db.artifacts.count() == 1  # every re-registration deduped


def test_bench_db_query_at_boot_test_scale(benchmark):
    collection = Collection("runs")
    for index in range(480):
        collection.insert_one(
            {
                "cpu": ("kvm", "atomic", "timing", "o3")[index % 4],
                "cores": (1, 2, 4, 8)[index % 4],
                "status": "ok" if index % 3 else "kernel_panic",
            }
        )

    results = benchmark(
        collection.find, {"cpu": "o3", "status": "ok", "cores": 8}
    )
    assert len(results) == 80


def test_bench_event_queue_throughput(benchmark):
    def run_10k_events():
        queue = EventQueue()
        counter = {"n": 0}

        def tick():
            counter["n"] += 1
            if counter["n"] < 10_000:
                queue.schedule(10, tick)

        queue.schedule(0, tick)
        queue.run()
        return counter["n"]

    assert benchmark(run_10k_events) == 10_000


def test_bench_disk_image_hash(benchmark):
    image = build_resource("parsec").image
    digest = benchmark(image.content_hash)
    assert len(digest) == 32


def test_bench_pool_dispatch_overhead(benchmark):
    """A process pool's round trip with nothing in it: 100 envelopes of
    a stdlib function, forks of the seats included."""

    def dispatch_100():
        with ProcessPool(workers=2) as pool:
            handles = [
                pool.submit(JobEnvelope("operator:neg", args=(-x,)))
                for x in range(100)
            ]
            return sum(handle.result() for handle in handles)

    assert benchmark(dispatch_100) == sum(range(100))
