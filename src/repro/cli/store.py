"""The verbs that read (and maintain) what a database holds:
``repro report``, ``repro resume``, ``repro cache``, ``repro db`` and
``repro trace``."""

from __future__ import annotations

from repro.cli import error, open_db
from repro.common import TextTable


def _report_arguments(parser) -> None:
    parser.add_argument("archive", help="path to an exported archive")


def _resume_arguments(parser) -> None:
    from repro.cli.studies import add_sweep_flags

    parser.add_argument(
        "experiment", help="experiment name or id in the database"
    )
    parser.add_argument(
        "--db", required=True, metavar="URI",
        help="database URI the experiment was recorded into "
        "(file:///dir for anything that survives a crash)",
    )
    parser.add_argument(
        "--retry-failures", action="store_true",
        help="also re-queue runs that finished as failed/timed_out",
    )
    add_sweep_flags(parser)


def _cache_arguments(parser) -> None:
    parser.add_argument(
        "--kind", default="run", choices=("run", "ckpt", "stage"),
        help="which store (default: run, the result cache)",
    )
    parser.add_argument(
        "action", choices=("stats", "ls", "invalidate", "gc"),
        help="stats: summary counts; ls: one line per entry; "
        "invalidate: evict by key, artifact content hash (run) or "
        "stage name (stage); gc (ckpt): evict checkpoints whose boot "
        "prefix no run spec references anymore",
    )
    parser.add_argument(
        "token", nargs="?", default=None,
        help="invalidate only: a key (or unambiguous prefix of one), or "
        "a token that evicts every entry answering to it",
    )
    parser.add_argument(
        "--db", required=True, metavar="URI",
        help="database URI holding the store",
    )


def _db_arguments(parser) -> None:
    parser.add_argument(
        "action", choices=("stats", "compact", "scrub", "recover"),
        help="stats: collection/segment/blob shape; compact: fold each "
        "WAL into its segment, dropping tombstones; scrub: re-verify "
        "blob hashes and quarantine rot; recover: replay the logs and "
        "report what crash recovery found",
    )
    parser.add_argument(
        "--db", required=True, metavar="URI",
        help="database URI (file:///dir[?durability=batch|strict])",
    )


def _trace_arguments(parser) -> None:
    parser.add_argument(
        "experiment", help="experiment name or id in the database"
    )
    parser.add_argument(
        "--db", required=True, metavar="URI",
        help="database URI the experiment was recorded into",
    )
    parser.add_argument(
        "--chrome", default=None, metavar="PATH",
        help="write the timeline as Chrome chrome://tracing JSON",
    )
    parser.add_argument(
        "--prometheus", action="store_true",
        help="also print the archived metrics in Prometheus text format",
    )


def _cmd_resume(args) -> int:
    from repro.art import ArtifactDB, Experiment
    from repro.cli.studies import sweep_options
    from repro.common.errors import ReproError

    database = open_db(args.db)
    if database is None:
        return 1
    try:
        db = ArtifactDB(database)
        experiment = Experiment.load(db, args.experiment)
    except ReproError as exc:
        error(str(exc))
        return 1
    pending = experiment.pending_runs(
        retry_failures=args.retry_failures
    )
    report = experiment.report()
    total = report["runs"]
    if not pending:
        print(
            f"nothing to resume: all {total} runs of "
            f"{experiment.name!r} are finished"
        )
        return 0
    options = sweep_options(args)
    workers = (
        f", {options['workers']} workers" if "workers" in options else ""
    )
    print(
        f"resuming {experiment.name!r}: {len(pending)} of {total} runs "
        f"pending ({args.substrate} substrate{workers})"
    )
    try:
        experiment.resume(
            retry_failures=args.retry_failures, **options
        )
    except ReproError as exc:
        error(str(exc))
        return 1
    db.save()
    report = experiment.report()
    for stack, counts in sorted(report["by_stack"].items()):
        line = ", ".join(
            f"{status}={count}"
            for status, count in sorted(counts.items())
        )
        print(f"{stack:<24} {line}")
    print(f"\nexperiment {experiment.experiment_id} is up to date")
    return 0


def _cmd_cache(args) -> int:
    """One verb over the three memo stores; what differs between them
    (columns, tokens, where the tallies come from) is on the classes."""
    from repro.art import ArtifactDB, CheckpointStore, RunCache
    from repro.common.errors import ReproError

    database = open_db(args.db)
    if database is None:
        return 1
    db = ArtifactDB(database)
    if args.kind == "stage":
        from repro.pipeline import StageCache as store_class
    else:
        store_class = {"run": RunCache, "ckpt": CheckpointStore}[args.kind]
    store = store_class(db)
    if args.action == "stats":
        # One ``label value`` line per count, then the breakdown.
        stats = store.stats()
        counts = {
            key.replace("_", " "): value
            for key, value in stats.items()
            if not isinstance(value, dict)
        }
        for name, count in sorted(stats[f"by_{store.label_field}"].items()):
            counts[f"  {name}"] = count
        width = max(map(len, counts)) + 2
        for label, value in counts.items():
            spec = ".1f" if isinstance(value, float) else ""
            print(f"{label:<{width}}{value:{spec}}")
        return 0
    if args.action == "ls":
        title, columns = store.listing
        tallies = store.tallies()
        table = TextTable([header for header, _, _ in columns], title=title)
        for entry in store.entries():
            entry["tally"] = tallies.get(entry[store.key_field], 0)
            table.add_row(
                [str(entry.get(field, "?"))[:limit]
                 for _, field, limit in columns]
            )
        print(table.render())
        return 0
    if args.action == "gc":
        if args.kind != "ckpt":
            error("gc needs --kind ckpt: nothing else has orphans")
            return 2
        # Live: some run document's spec still hashes to the prefix.
        live = set(store.run_prefixes({}))
        evicted = store.gc(live)
        db.save()
        noun = "checkpoint" if evicted == 1 else "checkpoints"
        print(f"evicted {evicted} orphaned {noun} "
              f"({len(live)} live boot prefixes)")
        return 0
    if not args.token:
        error("invalidate needs a fingerprint or artifact hash")
        return 2
    try:
        evicted = store.invalidate(args.token)
    except ReproError as exc:
        error(str(exc))
        return 2
    db.save()
    if evicted == 0:
        print(f"no cache entries match {args.token!r}")
        return 1
    noun = "entry" if evicted == 1 else "entries"
    print(f"evicted {evicted} cache {noun}; "
          "dependent runs will re-execute on next launch")
    return 0


def _cmd_db(args) -> int:
    """Storage-engine maintenance: stats, compact, scrub, recover."""
    db = open_db(args.db)
    if db is None:
        return 1
    try:
        if args.action == "stats":
            stats = db.storage_stats()
            table = TextTable(
                ["Collection", "Docs", "Seg bytes", "WAL bytes"],
                title=f"STORAGE ENGINE ({stats['durability']})",
            )
            for name, entry in sorted(stats["collections"].items()):
                table.add_row(
                    [
                        name,
                        str(entry["documents"]),
                        str(entry["segment_bytes"]),
                        str(entry["wal_bytes"]),
                    ]
                )
            print(table.render())
            files = stats.get("filestore")
            if files is not None:
                print(
                    f"filestore: {files['blobs']} blobs "
                    f"({files['deflated']} deflated, "
                    f"{files['deltas']} deltas), "
                    f"{files['bytes']} bytes in a "
                    f"{files['pack_bytes']}-byte pack "
                    f"({files['dead_bytes']} dead), "
                    f"{files['quarantined']} quarantined"
                )
            return 0
        if args.action == "compact":
            merged = 0
            for name, result in sorted(db.compact().items()):
                if result["merged"]:
                    merged += 1
                    print(
                        f"{name}: merged {result['merged']} WAL records "
                        f"into the segment, reclaimed "
                        f"{result['reclaimed_bytes']} bytes"
                    )
            if not merged:
                print("nothing to compact: every WAL is empty")
            return 0
        if args.action == "scrub":
            report = db.files.scrub()
            print(f"scanned      {report['scanned']}")
            print(f"quarantined  {len(report['quarantined'])}")
            for digest in report["quarantined"]:
                print(f"  quarantined {digest}")
            return 1 if report["quarantined"] else 0
        # recover: the replay already happened at connect(); report it.
        report = db.recovery_report()
        if not report:
            print("no persisted collections to recover")
            return 0
        table = TextTable(
            ["Collection", "Records", "WAL records", "Torn bytes"],
            title="CRASH RECOVERY",
        )
        for name, entry in sorted(report.items()):
            table.add_row(
                [
                    name,
                    str(entry["records_replayed"]),
                    str(entry["wal_records"]),
                    str(entry["truncated_bytes"]),
                ]
            )
        print(table.render())
        torn = sum(e["truncated_bytes"] for e in report.values())
        if torn:
            print(f"truncated {torn} torn tail bytes; WAL is clean again")
        return 0
    finally:
        db.close()


def _cmd_trace(args) -> int:
    from repro.art import ArtifactDB
    from repro.art.launch import find_experiment
    from repro.common.errors import ReproError
    from repro.telemetry import (
        chrome_trace_json,
        metrics_to_prometheus,
        rehydrate_telemetry,
    )

    database = open_db(args.db)
    if database is None:
        return 1
    try:
        db = ArtifactDB(database)
        doc = find_experiment(db, args.experiment)
        snapshot = rehydrate_telemetry(db, doc["_id"])
    except ReproError as exc:
        error(str(exc))
        return 1

    spans = snapshot["spans"]
    # Write the trace file before touching stdout: if stdout is a pipe
    # that closes early (e.g. | head), the artifact must still exist.
    if args.chrome:
        try:
            with open(args.chrome, "w", encoding="utf-8") as handle:
                handle.write(chrome_trace_json(spans))
        except OSError as exc:
            error(f"cannot write {args.chrome}: {exc}")
            return 1
    print(_trace_timing_table(doc, spans))
    if args.chrome:
        print(f"\nChrome trace written to {args.chrome} "
              "(open in chrome://tracing or ui.perfetto.dev)")
    if args.prometheus:
        print()
        print(metrics_to_prometheus(snapshot["metrics"]), end="")
    return 0


def _trace_timing_table(doc, spans) -> str:
    """Per-run timing table reconstructed purely from archived spans."""
    children = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)

    def wall_ms(span) -> str:
        duration = span.get("duration")
        return f"{duration * 1000:.1f}" if duration is not None else "?"

    table = TextTable(
        ["Run", "Workload", "Status", "Wall ms", "Phases"],
        title=f"experiment {doc['name']} {doc['_id']} — per-run timing",
    )
    run_spans = [s for s in spans if s["name"] == "run"]
    run_spans.sort(key=lambda s: s["start_wall"])
    for span in run_spans:
        attributes = span.get("attributes", {})
        phases = ", ".join(
            f"{child['name'].split('.', 1)[-1]}={wall_ms(child)}ms"
            for child in sorted(
                children.get(span["span_id"], []),
                key=lambda s: s["start_wall"],
            )
            if child["name"].startswith("phase.")
        )
        table.add_row(
            [
                str(attributes.get("run_id", "?"))[:8],
                str(attributes.get("workload", "?")),
                str(attributes.get("status", "?")),
                wall_ms(span),
                phases or "-",
            ]
        )
    total = next((s for s in spans if s["name"] == "experiment"), None)
    lines = [table.render()]
    if total is not None and total.get("duration") is not None:
        lines.append(
            f"experiment wall time: {total['duration']:.3f}s "
            f"over {len(run_spans)} runs"
        )
    return "\n".join(lines)


def _cmd_report(args) -> int:
    from repro.analysis import experiment_report
    from repro.art import ArtifactDB, import_archive, verify_archive
    from repro.common.errors import ReproError

    try:
        verify_archive(args.archive)
        db = ArtifactDB()
        import_archive(args.archive, db)
        print(experiment_report(db))
    except ReproError as exc:
        error(str(exc))
        return 1
    return 0


VERBS = {
    "report": (_report_arguments, _cmd_report),
    "resume": (_resume_arguments, _cmd_resume),
    "cache": (_cache_arguments, _cmd_cache),
    "db": (_db_arguments, _cmd_db),
    "trace": (_trace_arguments, _cmd_trace),
}
