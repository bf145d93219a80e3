"""Command-line interface.

``python -m repro <command>`` exposes the catalog and the paper's
experiments without writing a launch script:

- ``resources``                 — list Table I (with per-release status);
- ``selftest [--isa ISA]``      — run the gem5-tests resource;
- ``boot-tests [--quick]``      — regenerate the Fig 8 grid;
- ``parsec [--apps ...]``       — regenerate Figs 6/7 (optionally reduced);
- ``gpu``                       — regenerate Fig 9;
- ``resume <experiment> --db``  — finish an interrupted experiment (skips
  runs the database already marks done);
- ``cache [--kind run|ckpt|stage] stats|ls|invalidate|gc`` — inspect or
  evict a memo store (the fingerprint result cache by default, the
  boot-checkpoint store, the pipeline's stage cache): ``invalidate``
  takes a key or, cascading, an artifact content hash (``run``) or a
  stage name (``stage``); ``gc`` evicts checkpoints whose boot prefix no
  run spec references anymore; hit tallies are counted, not stored;
- ``db stats|compact|scrub|recover`` — storage-engine maintenance:
  per-collection segment/WAL shape, forced compaction, blob
  re-verification with quarantine, and a crash-recovery report.

``boot-tests`` and ``resume`` accept ``--workers N``,
``--substrate inline|threads|processes`` to choose where simulations
execute, ``--cache``/``--no-cache`` to control whether runs may adopt
memoized results instead of simulating, and
``--checkpoints``/``--no-checkpoints`` to stage the sweep as one boot per
unique boot prefix plus restored variants.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.common import TextTable


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Enabling Reproducible and Agile "
            "Full-System Simulation' (ISPASS 2021)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    resources = commands.add_parser(
        "resources", help="list the gem5-resources catalog (Table I)"
    )
    resources.add_argument("--gem5-version", default="20.1.0.4")

    selftest = commands.add_parser(
        "selftest", help="run the gem5-tests resource against a build"
    )
    selftest.add_argument("--isa", default="X86")
    selftest.add_argument("--version", default="20.1.0.4")

    boot = commands.add_parser(
        "boot-tests", help="run the Fig 8 boot-test cross product"
    )
    boot.add_argument(
        "--quick",
        action="store_true",
        help="one kernel and boot type only (48 runs instead of 480)",
    )
    boot.add_argument(
        "--telemetry",
        action="store_true",
        help="record spans/metrics/events and archive them in the "
        "database",
    )
    boot.add_argument(
        "--db",
        default=None,
        metavar="URI",
        help="database URI (memory:// or file:///dir) the run objects "
        "are archived in, so the grid can be resumed or traced later "
        "(default: memory://)",
    )
    _add_sweep_flags(boot)

    parsec = commands.add_parser(
        "parsec", help="run the Fig 6/7 PARSEC OS study"
    )
    parsec.add_argument(
        "--apps", nargs="+", default=None,
        help="subset of PARSEC applications (default: all 10 working)",
    )

    commands.add_parser("gpu", help="run the Fig 9 register-allocator study")

    rate = commands.add_parser(
        "rate", help="SPECrate-style throughput scaling study"
    )
    rate.add_argument("--suite", default="spec-2017",
                      choices=("spec-2006", "spec-2017"))
    rate.add_argument("--benchmarks", nargs="+", default=None)

    report = commands.add_parser(
        "report", help="render the reproducibility report of an archive"
    )
    report.add_argument("archive", help="path to an exported archive")

    resume = commands.add_parser(
        "resume",
        help="resume an interrupted experiment: skip finished runs, "
        "re-run the rest (idempotent by run id)",
    )
    resume.add_argument(
        "experiment", help="experiment name or id in the database"
    )
    resume.add_argument(
        "--db", required=True, metavar="URI",
        help="database URI the experiment was recorded into "
        "(file:///dir for anything that survives a crash)",
    )
    resume.add_argument(
        "--retry-failures", action="store_true",
        help="also re-queue runs that finished as failed/timed_out",
    )
    _add_sweep_flags(resume)

    cache = commands.add_parser(
        "cache",
        help="inspect or evict the result cache or another memo store",
    )
    cache.add_argument(
        "--kind", default="run", choices=("run", "ckpt", "stage"),
        help="which store (default: run, the result cache)",
    )
    cache.add_argument(
        "action", choices=("stats", "ls", "invalidate", "gc"),
        help="stats: summary counts; ls: one line per entry; "
        "invalidate: evict by key, artifact content hash (run) or "
        "stage name (stage); gc (ckpt): evict checkpoints whose boot "
        "prefix no run spec references anymore",
    )
    cache.add_argument(
        "token", nargs="?", default=None,
        help="invalidate only: a key (or unambiguous prefix of one), or "
        "a token that evicts every entry answering to it",
    )
    cache.add_argument(
        "--db", required=True, metavar="URI",
        help="database URI holding the store",
    )

    dbcmd = commands.add_parser(
        "db",
        help="inspect or maintain the embedded storage engine",
    )
    dbcmd.add_argument(
        "action", choices=("stats", "compact", "scrub", "recover"),
        help="stats: collection/segment/blob shape; compact: fold each "
        "WAL into its segment, dropping tombstones; scrub: re-verify "
        "blob hashes and quarantine rot; recover: replay the logs and "
        "report what crash recovery found",
    )
    dbcmd.add_argument(
        "--db", required=True, metavar="URI",
        help="database URI (file:///dir[?durability=none|batch|strict])",
    )

    lint = commands.add_parser(
        "lint",
        help="run every static-analysis rule and whole-program pass "
        "(exit 1 on any finding without a `# repro: noqa[RULE]` pragma)",
    )
    lint.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to analyze (default: src/repro)",
    )
    lint.add_argument(
        "--format", default="text", choices=("text", "sarif"),
        help="report format (sarif for code-scanning UIs)",
    )

    reproduce = commands.add_parser(
        "reproduce",
        help="run a reproduction manifest end to end: content-addressed "
        "stages, validation gates, bounded backtracking",
    )
    reproduce.add_argument(
        "manifest", help="path to a pipeline manifest (YAML or JSON)"
    )
    reproduce.add_argument(
        "--db", default="memory://", metavar="URI",
        help="database URI the pipeline journals into (file:///dir to "
        "make the second run a cache hit)",
    )
    reproduce.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="STAGE.PARAM=VALUE",
        help="override one stage parameter (JSON value or plain "
        "string); re-executes exactly that stage and its dependents",
    )
    reproduce.add_argument(
        "--no-stage-cache", dest="stage_cache", action="store_false",
        default=True,
        help="ignore journaled stage results; every stage executes",
    )
    reproduce.add_argument(
        "--expect-cache-hits", type=float, default=None, metavar="PCT",
        help="fail (exit 1) unless at least PCT%% of stage decisions "
        "were cache hits (CI uses this to assert incrementality)",
    )
    reproduce.add_argument(
        "--quiet", action="store_true",
        help="print only the final summary line",
    )

    pipeline = commands.add_parser(
        "pipeline",
        help="inspect or re-run journaled reproduction pipelines",
    )
    pipeline.add_argument(
        "action", choices=("status", "explain", "rerun"),
        help="status: one line per pipeline run; explain: replay one "
        "run's decision trail with per-stage provenance; rerun: "
        "re-execute the latest run's manifest (cache hits where "
        "nothing changed)",
    )
    pipeline.add_argument(
        "target", nargs="?", default=None,
        help="pipeline run id or pipeline name (default: the latest "
        "run for explain/rerun)",
    )
    pipeline.add_argument(
        "--db", required=True, metavar="URI",
        help="database URI holding the pipeline journal",
    )
    pipeline.add_argument(
        "--stage", default=None, metavar="NAME",
        help="rerun only: evict this stage's cached results first, "
        "forcing it and its dependents to re-execute",
    )

    trace = commands.add_parser(
        "trace",
        help="render an archived experiment timeline (requires a run "
        "with --telemetry)",
    )
    trace.add_argument(
        "experiment", help="experiment name or id in the database"
    )
    trace.add_argument(
        "--db", required=True, metavar="URI",
        help="database URI the experiment was recorded into",
    )
    trace.add_argument(
        "--chrome", default=None, metavar="PATH",
        help="write the timeline as Chrome chrome://tracing JSON",
    )
    trace.add_argument(
        "--prometheus", action="store_true",
        help="also print the archived metrics in Prometheus text format",
    )

    args = parser.parse_args(argv)
    handler = {
        "resources": _cmd_resources,
        "selftest": _cmd_selftest,
        "boot-tests": _cmd_boot_tests,
        "parsec": _cmd_parsec,
        "gpu": _cmd_gpu,
        "rate": _cmd_rate,
        "report": _cmd_report,
        "resume": _cmd_resume,
        "trace": _cmd_trace,
        "lint": _cmd_lint,
        "cache": _cmd_cache,
        "db": _cmd_db,
        "reproduce": _cmd_reproduce,
        "pipeline": _cmd_pipeline,
    }[args.command]
    return handler(args)


def _add_sweep_flags(subparser) -> None:
    """The flags ``boot-tests`` and ``resume`` share: ``--workers``,
    ``--substrate``, ``--cache``/``--no-cache`` (default: on) and
    ``--checkpoints``/``--no-checkpoints`` (default: off)."""
    subparser.add_argument(
        "--workers", type=int, default=None,
        help="scheduler workers, threads or processes (default: "
        "Experiment's)",
    )
    subparser.add_argument(
        "--substrate", default="threads",
        choices=("inline", "threads", "processes"),
        help="where simulations execute: the scheduler's in-process "
        "worker threads (default), OS worker processes for real CPU "
        "parallelism, or inline on the calling thread with no "
        "scheduler at all",
    )
    subparser.add_argument(
        "--cache", dest="use_cache", action="store_true", default=True,
        help="adopt memoized results for runs whose fingerprint is "
        "already cached (default)",
    )
    subparser.add_argument(
        "--no-cache", dest="use_cache", action="store_false",
        help="ignore the result cache; every run simulates",
    )
    subparser.add_argument(
        "--checkpoints", dest="use_checkpoints", action="store_true",
        default=False,
        help="stage the sweep: boot once per unique boot prefix, then "
        "restore every variant from its cohort's checkpoint",
    )
    subparser.add_argument(
        "--no-checkpoints", dest="use_checkpoints",
        action="store_false",
        help="boot every run in full (default)",
    )


def _sweep_options(args) -> dict:
    """The ``Experiment.launch``/``resume`` keywords the sweep flags
    set; without ``--workers`` the experiment's own default applies."""
    options = {
        "use_cache": args.use_cache,
        "substrate": args.substrate,
        "use_checkpoints": args.use_checkpoints,
    }
    if args.workers is not None:
        options["workers"] = args.workers
    return options


def _cmd_resources(args) -> int:
    from repro.resources import list_resources, status_matrix

    matrix = status_matrix(args.gem5_version)
    table = TextTable(
        ["Name", "Type", f"Status (gem5 {args.gem5_version})"],
        title="GEM5 RESOURCES",
    )
    for resource in list_resources():
        table.add_row([resource.name, resource.rtype, matrix[resource.name]])
    print(table.render())
    return 0


def _cmd_selftest(args) -> int:
    from repro.sim import Gem5Build
    from repro.sim.testing import run_test_suite

    build = Gem5Build(version=args.version, isa=args.isa)
    outcomes = run_test_suite(build)
    table = TextTable(
        ["Test", "Status", "Detail"],
        title=f"gem5 tests on {build.binary_name}",
    )
    failed = 0
    for outcome in outcomes:
        table.add_row([outcome.test_name, outcome.status, outcome.detail])
        if outcome.status == "fail":
            failed += 1
    print(table.render())
    return 1 if failed else 0


def _cmd_boot_tests(args) -> int:
    """The Fig 8 boot grid: artifacts + run objects + an archived,
    traceable timeline — what the paper means by a run the database
    alone can explain (``memory://`` without ``--db``)."""
    import collections

    from repro import telemetry
    from repro.analysis import status_grid
    from repro.art import (
        ArtifactDB,
        Experiment,
        register_disk_image,
        register_gem5_binary,
        register_kernel_binary,
        register_repo,
    )
    from repro.db import connect
    from repro.guest import BOOT_TEST_KERNEL_VERSIONS, get_kernel
    from repro.resources import build_resource
    from repro.sim import Gem5Build

    kernels = (
        BOOT_TEST_KERNEL_VERSIONS[:1]
        if args.quick
        else BOOT_TEST_KERNEL_VERSIONS
    )
    boot_types = ["init"] if args.quick else ["init", "systemd"]
    db = ArtifactDB(connect(args.db or "memory://"))
    if args.telemetry:
        telemetry.enable()
    try:
        gem5_repo = register_repo(db, "gem5", version="v20.1.0.4")
        resources_repo = register_repo(
            db,
            "gem5-resources",
            url="https://gem5.googlesource.com/public/gem5-resources",
            version="c5f5c70",
        )
        gem5_binary = register_gem5_binary(
            db, Gem5Build(version="20.1.0.4"), inputs=[gem5_repo]
        )
        disk = register_disk_image(
            db, build_resource("boot-exit").image,
            inputs=[resources_repo],
        )
        experiment = Experiment(db, "boot-tests")
        for version in kernels:
            experiment.add_stack(
                f"linux-{version}",
                gem5=gem5_binary,
                gem5_git=gem5_repo,
                run_script_git=resources_repo,
                linux_binary=register_kernel_binary(
                    db, get_kernel(version)
                ),
                disk_image=disk,
            )
        experiment.sweep(
            boot_type=boot_types,
            cpu_type=["kvm", "atomic", "timing", "o3"],
            memory_system=["classic", "MI_example", "MESI_Two_Level"],
            num_cpus=[1, 2, 4, 8],
        )
        print(f"launching {experiment.size()} boot tests ...")
        runs = experiment.create_runs()
        summaries = experiment.launch(**_sweep_options(args))
        counts = collections.Counter()
        cells = {}
        columns = []
        for run, summary in zip(runs, summaries):
            status = (summary or {}).get("simulation_status", "failed")
            counts[status] += 1
            params = run.params
            kernel = experiment.stack_of(run.run_id).removeprefix("linux-")
            column = (
                f"{params['cpu_type'][:2]}."
                f"{params['memory_system'][:2]}{params['num_cpus']}"
            )
            if column not in columns:
                columns.append(column)
            cells[(f"{kernel}/{params['boot_type']}", column)] = status
        rows = sorted({row for row, _ in cells})
        print(status_grid(cells, rows, columns, title="Fig 8 boot tests"))
        print()
        for status, count in sorted(counts.items()):
            print(f"{status:<14} {count}")
        db.save()
        if args.db:
            print(f"\nexperiment {experiment.experiment_id} archived "
                  f"as 'boot-tests'")
        if args.telemetry:
            print("telemetry recorded; inspect with:\n"
                  f"  repro trace boot-tests --db {args.db or 'memory://'}"
                  " --prometheus --chrome trace.json")
    finally:
        if args.telemetry:
            telemetry.disable()
    return 0


def _cmd_parsec(args) -> int:
    from repro.analysis import Series, bar_chart, difference_series
    from repro.guest import get_distro
    from repro.resources import build_resource
    from repro.sim import Gem5Build, Gem5Simulator, SystemConfig
    from repro.sim.workload import PARSEC_WORKING_APPS

    apps = tuple(args.apps) if args.apps else PARSEC_WORKING_APPS
    unknown = set(apps) - set(PARSEC_WORKING_APPS)
    if unknown:
        print(f"unknown/broken PARSEC apps: {sorted(unknown)}")
        return 2
    times = {}
    for os_key in ("ubuntu-18.04", "ubuntu-20.04"):
        image = build_resource("parsec", distro=os_key).image
        kernel = get_distro(os_key).kernel_version
        for app in apps:
            for cpus in (1, 8):
                config = SystemConfig(
                    cpu_type="timing",
                    num_cpus=cpus,
                    memory_system="MESI_Two_Level",
                )
                result = Gem5Simulator(Gem5Build(), config).run_fs(
                    kernel, image, benchmark=app
                )
                times[(os_key, app, cpus)] = result.workload_seconds
    bionic = Series(
        "18.04", {a: times[("ubuntu-18.04", a, 1)] for a in apps}
    )
    focal = Series(
        "20.04", {a: times[("ubuntu-20.04", a, 1)] for a in apps}
    )
    print(bar_chart(
        [difference_series("18.04-20.04 (1 core)", bionic, focal)],
        title="Fig 6 (1 core)", unit="s",
    ))
    print()
    for os_key, series in (("18.04", bionic), ("20.04", focal)):
        speedups = Series(
            os_key,
            {
                a: times[(f"ubuntu-{os_key}", a, 1)]
                / times[(f"ubuntu-{os_key}", a, 8)]
                for a in apps
            },
        )
        print(f"Fig 7 mean speedup {os_key}: {speedups.mean():.2f}x")
    return 0


def _cmd_gpu(args) -> int:
    from repro.analysis import Series, bar_chart
    from repro.gpu import GPU_WORKLOADS, GPUDevice

    device = GPUDevice()
    speedups = {}
    for name, workload in GPU_WORKLOADS.items():
        simple = device.execute(workload.kernel, "simple").shader_ticks
        dynamic = device.execute(workload.kernel, "dynamic").shader_ticks
        speedups[name] = simple / dynamic
    series = Series("dynamic-vs-simple", dict(sorted(speedups.items())))
    print(bar_chart([series], title="Fig 9", unit="x"))
    mean_rel = sum(1.0 / v for v in speedups.values()) / len(speedups)
    print(f"\nmean relative time (dynamic/simple): {mean_rel:.3f}")
    return 0


def _cmd_rate(args) -> int:
    from repro.sim import Gem5Build, Gem5Simulator, SystemConfig
    from repro.sim.workload import get_workload, suite_apps

    benchmarks = args.benchmarks or list(suite_apps(args.suite))[:6]
    unknown = set(benchmarks) - set(suite_apps(args.suite))
    if unknown:
        print(f"unknown {args.suite} benchmarks: {sorted(unknown)}")
        return 2
    table = TextTable(
        ["Benchmark", "rate@1", "rate@8", "Scaling"],
        title=f"SPECrate scaling ({args.suite}, O3, DDR3 x1)",
    )
    for name in benchmarks:
        workload = get_workload(args.suite, name, "test")
        rates = {}
        for copies in (1, 8):
            simulator = Gem5Simulator(
                Gem5Build(),
                SystemConfig(
                    cpu_type="o3",
                    num_cpus=8,
                    memory_system="MESI_Two_Level",
                ),
            )
            result = simulator.run_se_rate(workload, copies=copies)
            rates[copies] = result.stats["rate"]
        table.add_row(
            [name, f"{rates[1]:.1f}", f"{rates[8]:.1f}",
             f"{rates[8] / rates[1]:.2f}x"]
        )
    print(table.render())
    return 0


def _open_db(args):
    """The database ``--db`` names, for a verb that reads what an
    earlier one wrote — or None once the reason has been printed: a URI
    that does not connect, or a ``file://`` directory that is not there
    (``connect`` would create it, and a mistyped path would answer
    "empty" and leave a database behind)."""
    import os
    from urllib.parse import urlparse

    from repro.common.errors import ReproError
    from repro.db import connect

    parsed = urlparse(args.db)
    if parsed.scheme == "file" and not os.path.isdir(parsed.path):
        print(f"error: no database at {parsed.path}")
        return None
    try:
        return connect(args.db)
    except ReproError as error:
        print(f"error: {error}")
        return None


def _cmd_resume(args) -> int:
    from repro.art import ArtifactDB, Experiment
    from repro.common.errors import ReproError

    database = _open_db(args)
    if database is None:
        return 1
    try:
        db = ArtifactDB(database)
        experiment = Experiment.load(db, args.experiment)
    except ReproError as error:
        print(f"error: {error}")
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
    options = _sweep_options(args)
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
    except ReproError as error:
        print(f"error: {error}")
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

    database = _open_db(args)
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
            print("error: gc needs --kind ckpt: nothing else has orphans")
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
        print("error: invalidate needs a fingerprint or artifact hash")
        return 2
    try:
        evicted = store.invalidate(args.token)
    except ReproError as error:
        print(f"error: {error}")
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
    db = _open_db(args)
    if db is None:
        return 1
    try:
        if args.action == "stats":
            stats = db.storage_stats()
            table = TextTable(
                ["Collection", "Docs", "Seg bytes", "WAL bytes", "Indexes"],
                title=f"STORAGE ENGINE ({stats['durability']})",
            )
            for name, entry in sorted(stats["collections"].items()):
                indexes = ",".join(sorted(entry["indexes"])) or "-"
                table.add_row(
                    [
                        name,
                        str(entry["documents"]),
                        str(entry["segment_bytes"]),
                        str(entry["wal_bytes"]),
                        indexes,
                    ]
                )
            print(table.render())
            files = stats.get("filestore")
            if files is not None:
                print(
                    f"filestore: {files['blobs']} blobs, "
                    f"{files['bytes']} bytes, {files['shards']} shards, "
                    f"{files.get('quarantined', 0)} quarantined"
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
            print(f"tmp swept    {report['tmp_swept']}")
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


def _cmd_lint(args) -> int:
    """Run the analyzer; the exit code is the CI contract.

    0 — clean; 1 — findings (any rule, any severity: the pragma is the
    only way to accept one); 2 — usage error (bad paths).
    """
    import os

    from repro.analysis import lint_paths
    from repro.analysis.reporters import render_sarif, render_text

    paths = args.paths or ["src/repro"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}")
        return 2
    findings = lint_paths(paths)
    render = render_sarif if args.format == "sarif" else render_text
    output = render(findings)
    print(output, end="" if output.endswith("\n") else "\n")
    return 1 if findings else 0


def _cmd_trace(args) -> int:
    from repro.art import ArtifactDB
    from repro.art.launch import find_experiment
    from repro.common.errors import ReproError
    from repro.telemetry import (
        chrome_trace_json,
        metrics_to_prometheus,
        rehydrate_telemetry,
    )

    database = _open_db(args)
    if database is None:
        return 1
    try:
        db = ArtifactDB(database)
        doc = find_experiment(db, args.experiment)
        snapshot = rehydrate_telemetry(db, doc["_id"])
    except ReproError as error:
        print(f"error: {error}")
        return 1

    spans = snapshot["spans"]
    # Write the trace file before touching stdout: if stdout is a pipe
    # that closes early (e.g. | head), the artifact must still exist.
    if args.chrome:
        try:
            with open(args.chrome, "w", encoding="utf-8") as handle:
                handle.write(chrome_trace_json(spans))
        except OSError as error:
            print(f"error: cannot write {args.chrome}: {error}")
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
    except ReproError as error:
        print(f"error: {error}")
        return 1
    return 0


def _cmd_reproduce(args) -> int:
    from repro.art import ArtifactDB
    from repro.common.errors import ReproError
    from repro.db import connect
    from repro.pipeline import load_manifest, run_pipeline

    try:
        manifest = load_manifest(args.manifest, overrides=args.overrides)
        db = ArtifactDB(connect(args.db))
    except ReproError as error:
        print(f"error: {error}")
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
        for event in result["trail"]:
            print(f"  {_trail_line(event)}")
    counts = result["counts"]
    decisions = counts["executed"] + counts["cache_hits"]
    hit_pct = 100.0 * counts["cache_hits"] / decisions if decisions else 0.0
    print(
        f"pipeline {result['pipeline_id'][:8]} {result['status']}: "
        f"{counts['executed']} executed, "
        f"{counts['cache_hits']} cache hits ({hit_pct:.0f}%), "
        f"{counts['gate_failures']} gate failures, "
        f"{counts['backtracks']} backtracks"
    )
    if result["status"] != "succeeded":
        print(f"error: {result['error']}")
        return 1
    if (
        args.expect_cache_hits is not None
        and hit_pct < args.expect_cache_hits
    ):
        print(
            f"error: expected >= {args.expect_cache_hits:.0f}% stage "
            f"cache hits, observed {hit_pct:.0f}%"
        )
        return 1
    return 0


def _trail_line(event) -> str:
    kind = event.get("event")
    if kind == "stage":
        return (
            f"[{event['action']:>9}] {event['stage']} "
            f"(kind={event['kind']} attempt={event['attempt']} "
            f"gates={'ok' if event['gates_ok'] else 'FAILED'} "
            f"fp={event['fingerprint'][:12]})"
        )
    if kind == "backtrack":
        return (
            f"[backtrack] {event['from_stage']} -> {event['to_stage']} "
            f"({event['backtracks_used']}/{event['max_backtracks']}: "
            f"{'; '.join(event['failed_gates'])})"
        )
    if kind == "gate_failed_final":
        return (
            f"[gate-fail] {event['stage']} out of backtracks: "
            f"{'; '.join(event['failed_gates'])}"
        )
    if kind == "stage_error":
        return f"[    error] {event['stage']}: {event['error']}"
    if kind == "finished":
        return f"[ finished] {event['status']}"
    return str({k: v for k, v in event.items() if k != "at_wall"})


def _cmd_pipeline(args) -> int:
    from repro.art import ArtifactDB
    from repro.common.errors import NotFoundError, ReproError
    from repro.pipeline import (
        PipelineJournal,
        StageCache,
        load_manifest,
        run_pipeline,
    )

    database = _open_db(args)
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
             "Back", "Started"],
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
                    str(counts.get("backtracks", 0)),
                    str(doc.get("started_at_wall", "?"))[:19],
                ]
            )
        print(table.render())
        return 0

    # explain / rerun address one pipeline run.
    doc = None
    if args.target:
        try:
            doc = journal.get_pipeline(args.target)
        except NotFoundError:
            doc = journal.latest_pipeline(name=args.target)
    else:
        doc = journal.latest_pipeline()
    if doc is None:
        print(f"error: no pipeline run matches {args.target!r}")
        return 1

    if args.action == "explain":
        print(
            f"pipeline {doc['pipeline']!r} run {doc['_id'][:8]} "
            f"[{doc['status']}] manifest "
            f"{doc['manifest_fingerprint'][:12]} "
            f"({doc.get('manifest_path') or 'inline'})"
        )
        print(f"  stage order: {' -> '.join(doc['stage_order'])}")
        print("  decision trail:")
        for event in doc.get("trail", []):
            print(f"    {_trail_line(event)}")
        print("  stage provenance:")
        for stage in journal.stages_of(doc["_id"]):
            verdicts = stage.get("verdicts") or []
            print(
                f"    {stage['stage']} attempt {stage['attempt']} "
                f"[{stage['action']}] fp={stage['fingerprint'][:12]} "
                f"outputs={str(stage.get('outputs_blob'))[:12]}"
            )
            for verdict in verdicts:
                mark = "pass" if verdict["ok"] else "FAIL"
                print(f"      gate {mark}: {verdict.get('detail')}")
            if stage.get("error"):
                print(f"      error: {stage['error']}")
        return 0

    # rerun
    path = doc.get("manifest_path")
    if not path:
        print(
            "error: the journaled run has no manifest path; "
            "use 'repro reproduce <manifest>' directly"
        )
        return 2
    try:
        manifest = load_manifest(path)
    except ReproError as error:
        print(f"error: {error}")
        return 2
    if args.stage:
        try:
            targets = [args.stage] + manifest.dependents_of(args.stage)
        except ReproError as error:
            print(f"error: {error}")
            return 2
        cache = StageCache(db)
        evicted = sum(cache.evict(name) for name in targets)
        print(
            f"evicted {evicted} cached results for "
            f"{', '.join(targets)}; they will re-execute"
        )
    result = run_pipeline(db, manifest, journal=journal)
    db.save()
    for event in result["trail"]:
        print(f"  {_trail_line(event)}")
    print(
        f"pipeline {result['pipeline_id'][:8]} {result['status']}: "
        f"{result['counts']}"
    )
    return 0 if result["status"] == "succeeded" else 1


if __name__ == "__main__":
    sys.exit(main())
