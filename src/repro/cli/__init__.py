"""Command-line interface.

``python -m repro <command>`` exposes the catalog and the paper's
experiments without writing a launch script:

- ``resources``                 — list Table I (with per-release status);
- ``selftest [--isa ISA]``      — run the gem5-tests resource;
- ``boot-tests [--quick]``      — regenerate the Fig 8 grid;
- ``parsec [--apps ...]``       — regenerate Figs 6/7 (optionally reduced);
- ``gpu``                       — regenerate Fig 9 (all three take
  ``--db URI`` to archive their runs);
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
``--substrate inline|processes`` to choose where simulations execute (on
the calling thread, or in worker processes), ``--cache``/``--no-cache``
to control whether runs may adopt memoized results instead of
simulating, and ``--checkpoints``/``--no-checkpoints`` to stage the sweep
as one boot per unique boot prefix plus restored variants.

A command compiles only the family module that owns its verb:
:mod:`~repro.cli.studies` (the paper's studies), :mod:`~repro.cli.catalog`
(Table I, the test suite and ``rate``), :mod:`~repro.cli.store` (what a
database holds), :mod:`~repro.cli.pipeline` (``reproduce`` and its journal) and
:mod:`~repro.cli.lint`.  :func:`main` lists every verb with its help and
builds the arguments of the one named first on the command line.  Every
``error: …`` line goes to stderr (:func:`error`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _catalog():
    from repro.cli.catalog import VERBS

    return VERBS


def _studies():
    from repro.cli.studies import VERBS

    return VERBS


def _store():
    from repro.cli.store import VERBS

    return VERBS


def _lint():
    from repro.cli.lint import VERBS

    return VERBS


def _pipeline():
    from repro.cli.pipeline import VERBS

    return VERBS


#: ``(verb, help, family)`` in ``repro --help`` order; ``family()``
#: imports the module that owns the verb and returns its table of
#: ``verb -> (add_arguments, handler)``.
VERBS = (
    ("resources", "list the gem5-resources catalog (Table I)", _catalog),
    ("selftest", "run the gem5-tests resource against a build", _catalog),
    ("boot-tests", "run the Fig 8 boot-test cross product", _studies),
    ("parsec", "run the Fig 6/7 PARSEC OS study", _studies),
    ("gpu", "run the Fig 9 register-allocator study", _studies),
    ("rate", "SPECrate-style throughput scaling study", _catalog),
    ("report", "render the reproducibility report of an archive", _store),
    (
        "resume",
        "resume an interrupted experiment: skip finished runs, "
        "re-run the rest (idempotent by run id)",
        _store,
    ),
    (
        "cache",
        "inspect or evict the result cache or another memo store",
        _store,
    ),
    ("db", "inspect or maintain the embedded storage engine", _store),
    (
        "lint",
        "run every static-analysis rule and whole-program pass "
        "(exit 1 on any finding without a `# repro: noqa[RULE]` pragma)",
        _lint,
    ),
    (
        "reproduce",
        "run a reproduction manifest end to end: content-addressed "
        "stages, validation gates, one journaled decision per stage",
        _pipeline,
    ),
    (
        "pipeline",
        "inspect or re-run journaled reproduction pipelines",
        _pipeline,
    ),
    (
        "trace",
        "render an archived experiment timeline (requires a run "
        "with --telemetry)",
        _store,
    ),
)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Enabling Reproducible and Agile "
            "Full-System Simulation' (ISPASS 2021)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    handler = None
    for name, help_text, family in VERBS:
        subparser = commands.add_parser(name, help=help_text)
        # The top-level parser's only option is -h, so a verb that
        # parses is argv[0]: only its family is imported.
        if argv[:1] == [name]:
            add_arguments, handler = family()[name]
            add_arguments(subparser)
    args = parser.parse_args(argv)
    return handler(args)


def error(message: str) -> None:
    """Report a failure the way every verb does: ``error: …`` on
    stderr, so stdout holds only the command's output."""
    print(f"error: {message}", file=sys.stderr)


def open_db(uri: str, create: bool = False):
    """The database ``--db`` names — or None once the reason has been
    printed: a URI that does not connect (a root of another format
    included), or, unless ``create`` (a verb that may start a database),
    a ``file://`` directory that is not there (``connect`` would create
    it, and a mistyped path would answer "empty" and leave a database
    behind)."""
    import os
    from urllib.parse import urlparse

    from repro.common.errors import ReproError
    from repro.db import connect

    parsed = urlparse(uri)
    missing = parsed.scheme == "file" and not os.path.isdir(parsed.path)
    if missing and not create:
        error(f"no database at {parsed.path}")
        return None
    try:
        return connect(uri)
    except ReproError as exc:
        error(str(exc))
        return None
