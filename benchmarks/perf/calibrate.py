#!/usr/bin/env python3
"""The reference kernel: a fixed piece of work whose CPU time says how
fast the host is right now.

``run.py`` runs it as a fresh child between samples and divides each
sample's CPU time by the kernel's (see "Host speed" in README.md).  It
does, at about a third each, the three things the measured commands
spend their CPU on: interpreting bytecode, building / encoding / hashing
/ indexing documents, and handing work between threads under the GIL.
It imports nothing of ``repro`` and reads no input, so it is the same
work on every commit: **never change it** — every number recorded with
it would stop being comparable.
"""

import hashlib
import json
import queue
import threading


def interpret(rounds: int) -> int:
    x = 0
    for i in range(rounds):
        x = (x * 31 + i) % 1000003
    return x


def documents(count: int) -> int:
    docs = []
    for i in range(count):
        doc = {
            "_id": "%032x" % (i * 2654435761), "name": "run-%d" % i, "n": i,
            "inputs": {
                "kernel": "5.4.%d" % (i % 50),
                "cpu": ("kvm", "atomic", "o3")[i % 3],
                "cores": 1 << (i % 4),
                "paths": ["a/b/c/%d" % j for j in range(6)],
            },
            "status": "ok", "t": i * 0.001,
        }
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(text.encode()).hexdigest()
        docs.append((digest, json.loads(text)))
    docs.sort()
    index = {}
    for digest, doc in docs:
        index.setdefault(doc["inputs"]["cpu"], []).append(digest)
    return len(index)


def hand_offs(count: int) -> int:
    jobs, results = queue.Queue(), queue.Queue()

    def worker():
        while True:
            item = jobs.get()
            if item is None:
                return
            total = 0
            for i in range(300):
                total += i * item
            results.put(json.dumps({"a": total, "b": [item] * 8}))

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for item in range(count):
        jobs.put(item)
    size = sum(len(results.get()) for _ in range(count))
    for thread in threads:
        jobs.put(None)
    for thread in threads:
        thread.join()
    return size


if __name__ == "__main__":
    interpret(1_800_000)
    documents(6000)
    hand_offs(6000)
