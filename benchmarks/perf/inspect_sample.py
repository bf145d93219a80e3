#!/usr/bin/env python3
"""Read back what one finished sample left in its directory.

    python inspect_sample.py '[{"directory": ..., "workers": 2, ...}, ...]'

prints a JSON list, one object per sample: the outcome table the child
printed (``outcomes``), the SHA-256 over its database's run documents
(``digest``) and, when the sample was traced, every per-layer number it
can give on its own (``layers``).  The harness runs this in a child so
that its own memory stays small; nothing here is timed.
"""

import hashlib
import json
import re
import sys
from pathlib import Path
from typing import Dict

from repro.db import connect

from traced_child import IMPORT, TARGETS, root_seconds, self_times

#: Traced operations reported as a time only (the call count says
#: nothing: it is 1, or it mirrors another metric's).
SELF_ONLY = (
    "art.launch", "db.connect", "db.save", "scheduler.app.wait",
    "scheduler.app.shutdown", "scheduler.procpool.result",
    "scheduler.procpool.shutdown",
)

_STATUS_LINE = re.compile(r"^(\w+)\s+(\d+)$", re.MULTILINE)
_PIPELINE_LINE = re.compile(r"(\d+) executed, (\d+) cache hits")


def observed_outcomes(stdout: str) -> Dict[str, int]:
    """The outcome table the child printed: status counts of a sweep,
    or a pipeline's executed / cache-hit stage counts."""
    pipeline = _PIPELINE_LINE.search(stdout)
    if pipeline:
        return {
            "executed": int(pipeline.group(1)),
            "cache_hit": int(pipeline.group(2)),
        }
    return {m.group(1): int(m.group(2)) for m in _STATUS_LINE.finditer(stdout)}


def runs_digest(database) -> str:
    """SHA-256 over the sorted (fingerprint, simulation_status,
    stats_file_id) triples of every run document."""
    triples = sorted(
        [
            doc.get("fingerprint") or "",
            (doc.get("results") or {}).get("simulation_status") or "",
            (doc.get("results") or {}).get("stats_file_id") or "",
        ]
        for doc in database.collection("runs").find()
    )
    return hashlib.sha256(json.dumps(triples).encode("utf-8")).hexdigest()


def storage_bytes(database) -> Dict[str, int]:
    stats = database.storage_stats()
    collections = stats["collections"].values()
    return {
        "db.wal_bytes": sum(c["wal_bytes"] for c in collections),
        "db.segment_bytes": sum(c["segment_bytes"] for c in collections),
        "db.blob_bytes": stats["filestore"]["bytes"],
    }


def trace_metrics(spans, clock, outcomes, facts) -> Dict[str, float]:
    """The per-layer numbers of one traced sample.

    ``clock`` is the child's own clock readings (second line of the
    trace file), ``facts`` the harness's: ``workers``, ``wall_s`` and
    the ``time.time()`` just before the spawn (``spawned``) and just
    after the exit (``exited``).
    """
    totals = self_times(spans)
    # The import of the command's module sits under a span of its own
    # (so it is not "unattributed") and is reported nowhere:
    # cli.import_s is the untraced command's, from the probe.
    totals.pop(IMPORT)
    metrics = {}
    for prefix in dict.fromkeys(target[0] for target in TARGETS):
        calls, self_s = totals.get(prefix, (0, 0.0))
        if prefix not in SELF_ONLY:
            metrics[f"{prefix}.calls"] = calls
        metrics[f"{prefix}.self_s"] = self_s

    def calls_of(prefix):
        return totals.get(prefix, (0, 0.0))[0]

    consults = calls_of("art.cache.consult")
    metrics["art.cache.hit_share"] = (
        calls_of("art.adopt") / consults if consults else 0.0
    )
    results = calls_of("scheduler.procpool.result")
    metrics["scheduler.procpool.roundtrip_ms"] = (
        1000.0 * metrics["scheduler.procpool.result.self_s"] / results
        if results else 0.0
    )
    metrics["scheduler.procpool.worker_cpu_s"] = clock["children_cpu_s"]
    launch_wall = max(
        (end - start for _, name, _, start, end, _ in spans
         if name == "art.launch"),
        default=0.0,
    )
    metrics["scheduler.procpool.idle_share"] = (
        1.0 - clock["children_cpu_s"] / (facts["workers"] * launch_wall)
        if results else 0.0
    )
    metrics["sim.share"] = metrics["sim.run_fs.self_s"] / facts["wall_s"]
    stages = outcomes.get("executed", 0) + outcomes.get("cache_hit", 0)
    metrics["pipeline.stage_cache.hit_share"] = (
        outcomes.get("cache_hit", 0) / stages if stages else 0.0
    )
    # Interpreter start before the child's first statement plus
    # teardown after its last; the span dump in between is excluded.
    metrics["cli.startup_s"] = (clock["first"] - facts["spawned"]) + (
        facts["exited"] - clock["dumped"]
    )
    main_thread = clock["main_thread"]
    metrics["trace.unattributed_s"] = (
        clock["last"] - clock["first"]
    ) - root_seconds(spans, main_thread)
    metrics["trace.span_count"] = len(spans)
    by_layer = {}
    for name, (_, self_s) in self_times(
        [span for span in spans if span[2] != main_thread]
    ).items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + self_s
    metrics["trace.worker_framework_share"] = (
        sum(by_layer.get(layer, 0.0) for layer in ("db", "art", "common"))
        / sum(by_layer.values())
        if by_layer else 0.0
    )
    return metrics


def inspect(facts: dict) -> dict:
    directory = Path(facts["directory"])
    outcomes = observed_outcomes(
        (directory / "stdout").read_text(errors="replace")
    )
    found = {"outcomes": outcomes, "layers": {}}
    trace_file = directory / "trace.json"
    with connect(f"file://{directory / 'db'}") as database:
        found["digest"] = runs_digest(database)
        if trace_file.exists():
            found["layers"] = storage_bytes(database)
    if trace_file.exists():
        with open(trace_file, encoding="utf-8") as handle:
            spans = [
                (span_id, name, thread, start / 1e9, end / 1e9, parent)
                for span_id, name, thread, start, end, parent
                in json.loads(handle.readline())["spans"]
            ]
            clock = json.loads(handle.readline())
        found["layers"].update(trace_metrics(spans, clock, outcomes, facts))
    return found


def main(argv=None) -> int:
    (requests,) = sys.argv[1:] if argv is None else argv
    json.dump([inspect(facts) for facts in json.loads(requests)], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
