"""``repro reproduce`` (a manifest, end to end) and ``repro pipeline``
(its journal: status, explain, rerun)."""

from __future__ import annotations

from repro.cli import error, open_db
from repro.common import TextTable


def _reproduce_arguments(parser) -> None:
    parser.add_argument(
        "manifest", help="path to a pipeline manifest (YAML or JSON)"
    )
    parser.add_argument(
        "--db", default="memory://", metavar="URI",
        help="database URI the pipeline journals into (file:///dir to "
        "make the second run a cache hit)",
    )
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="STAGE.PARAM=VALUE",
        help="override one stage parameter (JSON value or plain "
        "string); re-executes exactly that stage and its dependents",
    )
    parser.add_argument(
        "--no-stage-cache", dest="stage_cache", action="store_false",
        default=True,
        help="ignore journaled stage results; every stage executes "
        "(the sweep's run cache still applies)",
    )
    parser.add_argument(
        "--expect-cache-hits", type=float, default=None, metavar="PCT",
        help="fail (exit 1) unless at least PCT%% of stage decisions "
        "were cache hits (CI uses this to assert incrementality)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="print only the final summary line",
    )


def _pipeline_arguments(parser) -> None:
    parser.add_argument(
        "action", choices=("status", "explain", "rerun"),
        help="status: one line per pipeline run; explain: print one "
        "run's stage documents with their gate verdicts; rerun: "
        "re-execute the latest run's manifest (cache hits where "
        "nothing changed)",
    )
    parser.add_argument(
        "target", nargs="?", default=None,
        help="pipeline run id or pipeline name (default: the latest "
        "run for explain/rerun)",
    )
    parser.add_argument(
        "--db", required=True, metavar="URI",
        help="database URI holding the pipeline journal",
    )
    parser.add_argument(
        "--stage", default=None, metavar="NAME",
        help="rerun only: evict this stage's cached results first, "
        "forcing it and its dependents to re-execute",
    )


def _cmd_reproduce(args) -> int:
    from repro.art import ArtifactDB
    from repro.common.errors import ReproError
    from repro.db import connect
    from repro.pipeline import load_manifest, run_pipeline

    try:
        manifest = load_manifest(args.manifest, overrides=args.overrides)
        db = ArtifactDB(connect(args.db))
    except ReproError as exc:
        error(str(exc))
        return 2
    if not args.quiet:
        print(
            f"reproduce {manifest.name!r}: "
            f"{len(manifest.stages)} stages, "
            f"order {' -> '.join(manifest.execution_order())}"
        )
    result = run_pipeline(
        db, manifest, use_cache=None if args.stage_cache else False
    )
    db.save()
    if not args.quiet:
        for stage in result["stages"].values():
            _print_stage(stage)
    counts = result["counts"]
    decisions = counts["executed"] + counts["cache_hits"]
    hit_pct = 100.0 * counts["cache_hits"] / decisions if decisions else 0.0
    print(
        f"pipeline {result['pipeline_id'][:8]} {result['status']}: "
        f"{counts['executed']} executed, "
        f"{counts['cache_hits']} cache hits ({hit_pct:.0f}%), "
        f"{counts['gate_failures']} gate failures"
    )
    if result["status"] != "succeeded":
        error(str(result["error"]))
        return 1
    if (
        args.expect_cache_hits is not None
        and hit_pct < args.expect_cache_hits
    ):
        error(
            f"expected >= {args.expect_cache_hits:.0f}% stage "
            f"cache hits, observed {hit_pct:.0f}%"
        )
        return 1
    return 0


def _print_stage(stage) -> None:
    """One journaled stage document: its decision, then its gate
    verdicts and error."""
    print(
        f"  [{stage['action']:>9}] {stage['stage']} "
        f"(kind={stage['kind']} "
        f"gates={'ok' if stage['gates_ok'] else 'FAILED'} "
        f"fp={stage['fingerprint'][:12]} "
        f"outputs={str(stage['outputs_blob'])[:12]})"
    )
    for verdict in stage["verdicts"]:
        mark = "pass" if verdict["ok"] else "FAIL"
        print(f"    gate {mark}: {verdict['detail']}")
    if stage["error"]:
        print(f"    error: {stage['error']}")


def _cmd_pipeline(args) -> int:
    from repro.art import ArtifactDB
    from repro.common.errors import NotFoundError, ReproError
    from repro.pipeline import (
        PipelineJournal,
        StageCache,
        load_manifest,
        run_pipeline,
    )

    database = open_db(args.db)
    if database is None:
        return 1
    db = ArtifactDB(database)
    journal = PipelineJournal(db)

    if args.action == "status":
        docs = journal.pipelines(name=None)
        if args.target:
            docs = [
                doc
                for doc in docs
                if args.target in (doc["pipeline"], doc["_id"])
            ]
        if not docs:
            print("no pipeline runs journaled")
            return 1
        table = TextTable(
            ["Run", "Pipeline", "Status", "Exec", "Hits", "Gates!",
             "Started"],
            title="PIPELINE RUNS",
        )
        for doc in docs:
            counts = doc.get("counts") or {}
            table.add_row(
                [
                    doc["_id"][:8],
                    doc["pipeline"],
                    doc["status"],
                    str(counts.get("executed", 0)),
                    str(counts.get("cache_hits", 0)),
                    str(counts.get("gate_failures", 0)),
                    str(doc.get("started_at_wall", "?"))[:19],
                ]
            )
        print(table.render())
        return 0

    # explain / rerun address one pipeline run.
    if args.target:
        try:
            doc = journal.get_pipeline(args.target)
        except NotFoundError:
            doc = journal.latest_pipeline(name=args.target)
    else:
        doc = journal.latest_pipeline()
    if doc is None and not args.target:
        print("no pipeline runs journaled")
        return 1
    if doc is None:
        error(f"no pipeline run matches {args.target!r}")
        return 1

    if args.action == "explain":
        print(
            f"pipeline {doc['pipeline']!r} run {doc['_id'][:8]} "
            f"[{doc['status']}] manifest "
            f"{doc['manifest_fingerprint'][:12]} "
            f"({doc.get('manifest_path') or 'inline'})"
        )
        print(f"  stage order: {' -> '.join(doc['stage_order'])}")
        for stage in journal.stages_of(doc["_id"]):
            _print_stage(stage)
        return 0

    # rerun
    path = doc.get("manifest_path")
    if not path:
        error(
            "the journaled run has no manifest path; "
            "use 'repro reproduce <manifest>' directly"
        )
        return 2
    try:
        manifest = load_manifest(path)
    except ReproError as exc:
        error(str(exc))
        return 2
    if args.stage:
        try:
            targets = [args.stage] + manifest.dependents_of(args.stage)
        except ReproError as exc:
            error(str(exc))
            return 2
        cache = StageCache(db)
        evicted = sum(cache.evict(name) for name in targets)
        print(
            f"evicted {evicted} cached results for "
            f"{', '.join(targets)}; they will re-execute"
        )
    result = run_pipeline(db, manifest, journal=journal)
    db.save()
    for stage in result["stages"].values():
        _print_stage(stage)
    print(
        f"pipeline {result['pipeline_id'][:8]} {result['status']}: "
        f"{result['counts']}"
    )
    return 0 if result["status"] == "succeeded" else 1


VERBS = {
    "reproduce": (_reproduce_arguments, _cmd_reproduce),
    "pipeline": (_pipeline_arguments, _cmd_pipeline),
}
