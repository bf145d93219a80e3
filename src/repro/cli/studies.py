"""The paper's studies as verbs: ``repro boot-tests`` (Fig 8),
``repro parsec`` (Figs 6/7) and ``repro gpu`` (Fig 9), each launching
its :mod:`repro.art.studies` builder, plus the sweep flags
``boot-tests`` shares with ``repro resume``."""

from __future__ import annotations

import argparse


def _db_argument(parser) -> None:
    """``--db``, which every study verb takes."""
    parser.add_argument(
        "--db",
        default=None,
        metavar="URI",
        help="database URI (memory:// or file:///dir) the run objects "
        "are archived in, so the grid can be resumed or traced later "
        "(default: memory://)",
    )


def _boot_tests_arguments(parser) -> None:
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one kernel and boot type only (48 runs instead of 480)",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="record spans/metrics/events and archive them in the "
        "database",
    )
    _db_argument(parser)
    add_sweep_flags(parser)


def _parsec_arguments(parser) -> None:
    parser.add_argument(
        "--apps", nargs="+", default=None,
        help="subset of PARSEC applications (default: all 10 working)",
    )
    _db_argument(parser)


def _positive_int(text: str) -> int:
    """``--workers``' type: below 1 is a usage error (exit 2), as
    ``execution.workers`` is in a manifest."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (got {value})")
    return value


def add_sweep_flags(subparser) -> None:
    """The flags ``boot-tests`` and ``resume`` share: ``--workers``,
    ``--substrate``, ``--cache``/``--no-cache`` (default: on) and
    ``--checkpoints``/``--no-checkpoints`` (default: off)."""
    subparser.add_argument(
        "--workers", type=_positive_int, default=None,
        help="worker processes on --substrate processes (default: "
        "Experiment's)",
    )
    subparser.add_argument(
        "--substrate", default="inline",
        choices=("inline", "processes"),
        help="where simulations execute: inline on the calling thread, "
        "one at a time (default), or OS worker processes for real CPU "
        "parallelism and a deadline that can stop a run",
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


def sweep_options(args) -> dict:
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


def _archive(args):
    """The ``ArtifactDB`` over ``--db`` (``memory://`` without one), or
    None once the reason it does not open has been printed."""
    from repro.art import ArtifactDB
    from repro.cli import open_db

    database = open_db(args.db or "memory://", create=True)
    return None if database is None else ArtifactDB(database)


def _archived(args, experiment) -> None:
    """Save the database; with ``--db``, say what it holds."""
    experiment.db.save()
    if args.db:
        print(f"\nexperiment {experiment.experiment_id} archived "
              f"as {experiment.name!r}")


def _cmd_boot_tests(args) -> int:
    """The Fig 8 boot grid: artifacts + run objects + an archived,
    traceable timeline — what the paper means by a run the database
    alone can explain (``memory://`` without ``--db``)."""
    import collections

    from repro import telemetry
    from repro.analysis import status_grid
    from repro.art import boot_tests

    db = _archive(args)
    if db is None:
        return 1
    if args.telemetry:
        telemetry.enable()
    try:
        experiment = boot_tests(db, quick=args.quick)
        print(f"launching {experiment.size()} boot tests ...")
        experiment.launch(**sweep_options(args))
        records = experiment.records()
        cells = {}
        columns = []
        for record in records:
            kernel = record["stack"].removeprefix("linux-")
            column = (
                f"{record['cpu_type'][:2]}."
                f"{record['memory_system'][:2]}{record['num_cpus']}"
            )
            if column not in columns:
                columns.append(column)
            cells[(f"{kernel}/{record['boot_type']}", column)] = (
                record["outcome"]
            )
        rows = sorted({row for row, _ in cells})
        print(status_grid(cells, rows, columns, title="Fig 8 boot tests"))
        print()
        counts = collections.Counter(record["outcome"] for record in records)
        for status, count in sorted(counts.items()):
            print(f"{status:<14} {count}")
        _archived(args, experiment)
        if args.telemetry:
            print("telemetry recorded; inspect with:\n"
                  f"  repro trace boot-tests --db {args.db or 'memory://'}"
                  " --prometheus --chrome trace.json")
    finally:
        if args.telemetry:
            telemetry.disable()
    return 0


def _cmd_parsec(args) -> int:
    from repro.analysis import Series, bar_chart, figs6_7
    from repro.art import parsec_study
    from repro.sim.workload import PARSEC_WORKING_APPS

    apps = tuple(args.apps) if args.apps else PARSEC_WORKING_APPS
    unknown = set(apps) - set(PARSEC_WORKING_APPS)
    if unknown:
        print(f"unknown/broken PARSEC apps: {sorted(unknown)}")
        return 2
    db = _archive(args)
    if db is None:
        return 1
    experiment = parsec_study(db, apps)
    experiment.launch()
    claims = figs6_7(experiment.records())
    print(bar_chart(
        [Series("18.04-20.04 (1 core)", claims["fig6"]["difference"]["1"])],
        title="Fig 6 (1 core)", unit="s",
    ))
    print()
    for stack, mean in claims["fig7"]["mean"].items():
        print(f"Fig 7 mean speedup {stack.removeprefix('ubuntu-')}: "
              f"{mean:.2f}x")
    _archived(args, experiment)
    return 0


def _cmd_gpu(args) -> int:
    from repro.analysis import Series, bar_chart, fig9
    from repro.art import gpu_regalloc_study

    db = _archive(args)
    if db is None:
        return 1
    experiment = gpu_regalloc_study(db)
    experiment.launch()
    claims = fig9(experiment.records())["fig9"]
    speedup = dict(sorted(claims["speedup"].items()))
    print(bar_chart(
        [Series("dynamic-vs-simple", speedup)], title="Fig 9", unit="x"
    ))
    print(f"\nmean relative time (dynamic/simple): {claims['mean']:.3f}")
    _archived(args, experiment)
    return 0


VERBS = {
    "boot-tests": (_boot_tests_arguments, _cmd_boot_tests),
    "parsec": (_parsec_arguments, _cmd_parsec),
    "gpu": (_db_argument, _cmd_gpu),
}
