"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main


def test_resources_command(capsys):
    assert main(["resources"]) == 0
    out = capsys.readouterr().out
    assert "GEM5 RESOURCES" in out
    assert "parsec" in out
    assert "supported" in out


def test_resources_gpu_status_depends_on_version(capsys):
    main(["resources", "--gem5-version", "20.1.0.4"])
    assert "requires gem5 21.0" in capsys.readouterr().out
    main(["resources", "--gem5-version", "21.0"])
    assert "requires gem5 21.0" not in capsys.readouterr().out


def test_selftest_command(capsys):
    assert main(["selftest", "--isa", "X86"]) == 0
    out = capsys.readouterr().out
    assert "simple" in out
    assert "pass" in out
    assert "skip" in out


def test_selftest_gcn3(capsys):
    assert main(["selftest", "--isa", "GCN3_X86", "--version", "21.0"]) == 0
    out = capsys.readouterr().out
    assert "square" in out


#: What ``boot-tests --quick`` printed at the commit that still had a
#: run-object-free "direct" path (the header and rule lines, 350
#: columns wide, are rebuilt from the axes).
_QUICK_GRID_ROW = (
    "4.4.186/init |  P  P  P  P  P  P  P  P  P  P  P  P  P  P  P  P"
    "  -  -  -  -  -  -  -  -  P  -  -  -  P  P  P  P  P  P  P  P"
    "  K  -  -  -  K  K  K  D  K  K  K  K"
)
_QUICK_COUNTS = (
    "legend: D=deadlock, K=kernel_panic, P=ok, -=unsupported\n"
    "\n"
    "deadlock       1\n"
    "kernel_panic   8\n"
    "ok             25\n"
    "unsupported    14\n"
)


def test_boot_tests_quick(tmp_path, capsys):
    header = "             | " + " ".join(
        f"{cpu[:2]}.{memory[:2]}{cores}"
        for cpu in ("kvm", "atomic", "timing", "o3")
        for memory in ("classic", "MI_example", "MESI_Two_Level")
        for cores in (1, 2, 4, 8)
    )
    golden = "\n".join(
        ["Fig 8 boot tests", header, "-" * len(header), _QUICK_GRID_ROW]
    ) + "\n" + _QUICK_COUNTS
    for extra in ([], ["--db", f"file://{tmp_path}/bootdb"]):
        assert main(["boot-tests", "--quick", *extra]) == 0
        out = capsys.readouterr().out
        assert golden in out, extra
        assert ("archived as 'boot-tests'" in out) == bool(extra)


def test_parsec_subset(capsys):
    assert main(["parsec", "--apps", "swaptions"]) == 0
    out = capsys.readouterr().out
    assert "Fig 6" in out
    assert "swaptions" in out
    assert "Fig 7 mean speedup" in out


def test_parsec_rejects_unknown_app(capsys):
    assert main(["parsec", "--apps", "doom"]) == 2
    assert "doom" in capsys.readouterr().out


def test_gpu_command(capsys):
    assert main(["gpu"]) == 0
    out = capsys.readouterr().out
    assert "Fig 9" in out
    assert "FAMutex" in out
    assert "mean relative time" in out


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_no_command_exits():
    with pytest.raises(SystemExit):
        main([])


def test_rate_command(capsys):
    assert main(["rate", "--benchmarks", "exchange2_r", "mcf_r"]) == 0
    out = capsys.readouterr().out
    assert "SPECrate scaling" in out
    assert "exchange2_r" in out
    assert "x" in out


def test_rate_rejects_unknown_benchmark(capsys):
    assert main(["rate", "--benchmarks", "doom_r"]) == 2


def test_report_command(tmp_path, capsys):
    from repro.art import (ArtifactDB, Experiment, export_archive,
                           register_disk_image, register_gem5_binary,
                           register_kernel_binary, register_repo)
    from repro.guest import get_kernel
    from repro.resources import build_resource
    from repro.sim import Gem5Build

    db = ArtifactDB()
    repo = register_repo(db, "gem5")
    experiment = Experiment(db, "cli-study")
    experiment.add_stack(
        "ubuntu-18.04",
        gem5=register_gem5_binary(db, Gem5Build(), inputs=[repo]),
        gem5_git=repo,
        run_script_git=repo,
        linux_binary=register_kernel_binary(db, get_kernel("4.15.18")),
        disk_image=register_disk_image(db, build_resource("parsec").image),
    )
    experiment.fix(cpu_type="timing", memory_system="MESI_Two_Level")
    experiment.sweep(benchmark=["swaptions"], num_cpus=[1])
    experiment.launch(substrate="inline")
    archive = str(tmp_path / "archive")
    export_archive(db, archive)
    capsys.readouterr()  # discard setup output

    assert main(["report", archive]) == 0
    out = capsys.readouterr().out
    assert "Reproducibility report: cli-study" in out
    assert "| ok | 1 |" in out


def test_report_command_bad_archive(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().out


def _interrupted_experiment(uri):
    """Create a 2-run experiment on a file DB with only 1 run finished."""
    from repro.art import ArtifactDB
    from repro.db import connect
    from tests.art.test_launch_share import make_experiment

    db = ArtifactDB(connect(uri))
    experiment = make_experiment(db)
    runs = experiment.create_runs()
    runs[0].run()
    db.database.save()
    return experiment, runs


def test_resume_command_finishes_interrupted_experiment(tmp_path, capsys):
    uri = f"file://{tmp_path}/expdb"
    _interrupted_experiment(uri)
    capsys.readouterr()  # discard setup output

    assert main(["resume", "parsec-mini", "--db", uri]) == 0
    out = capsys.readouterr().out
    assert "resuming 'parsec-mini': 1 of 2 runs pending" in out
    assert "up to date" in out

    # The resumed state was persisted: a second invocation has no work.
    assert main(["resume", "parsec-mini", "--db", uri]) == 0
    out = capsys.readouterr().out
    assert "nothing to resume: all 2 runs" in out


def test_resume_command_backend_and_workers_flags(tmp_path, capsys):
    uri = f"file://{tmp_path}/expdb"
    _interrupted_experiment(uri)
    capsys.readouterr()

    assert (
        main(
            [
                "resume",
                "parsec-mini",
                "--db",
                uri,
                "--substrate",
                "processes",
                "--workers",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "processes substrate, 2 workers" in out
    assert "up to date" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["boot-tests", "--quick", "--tenant", "x"],
        ["resume", "parsec-mini", "--db", "memory://", "--priority", "bulk"],
        ["admit", "stats"],
    ],
)
def test_admission_flags_and_verb_are_gone(argv):
    """A sweep runs on a private scheduler app — one submitter, one
    lane — so the CLI offers no admission coordinates to set."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--deep"],
        ["--strict"],
        ["--baseline", "accepted.json"],
        ["--write-baseline"],
        ["--format", "xml"],
        ["--format", "json"],
    ],
)
def test_lint_has_one_mode(flags):
    """`repro lint [paths] [--format F]` always runs every rule and
    pass and fails on any finding; the flags that used to choose a mode
    (and any format but text and sarif) are usage errors."""
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "src/repro"] + flags)
    assert excinfo.value.code == 2


def test_resume_command_unknown_experiment(tmp_path, capsys):
    uri = f"file://{tmp_path}/emptydb"
    assert main(["resume", "ghost", "--db", uri]) == 1
    assert "error:" in capsys.readouterr().out


def test_boot_tests_telemetry_then_trace(tmp_path, capsys):
    import json

    uri = f"file://{tmp_path}/tracedb"
    assert main(["boot-tests", "--quick", "--telemetry", "--db", uri]) == 0
    capsys.readouterr()  # discard launch output

    chrome_path = tmp_path / "trace.json"
    assert (
        main(
            [
                "trace",
                "boot-tests",
                "--db",
                uri,
                "--chrome",
                str(chrome_path),
                "--prometheus",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    # (a) the per-run timing table
    assert "Run" in out and "Wall ms" in out
    assert "experiment wall time" in out
    # (c) Prometheus metrics including runs_total by outcome
    assert "# TYPE runs_total counter" in out
    assert 'runs_total{outcome="done"}' in out
    # (b) valid Chrome-trace JSON with the nested span hierarchy
    trace = json.loads(chrome_path.read_text())
    names = {
        e["name"] for e in trace["traceEvents"] if e.get("ph") == "X"
    }
    assert {"experiment", "run", "phase.boot"} <= names


def test_trace_opens_the_newest_same_named_experiment(tmp_path, capsys):
    """``boot-tests`` prints ``repro trace boot-tests`` as its hint, so
    the name must address the sweep that just ran — the one ``resume``
    would load — not the first one archived under it."""
    import re

    uri = f"file://{tmp_path}/tracedb"
    ids = []
    for _ in range(2):
        assert (
            main(["boot-tests", "--quick", "--telemetry", "--db", uri]) == 0
        )
        ids.append(
            re.search(
                r"experiment (\S+) archived", capsys.readouterr().out
            ).group(1)
        )
    assert main(["trace", "boot-tests", "--db", uri]) == 0
    out = capsys.readouterr().out
    assert f"experiment boot-tests {ids[1]}" in out
    assert ids[0] not in out


def test_trace_unknown_experiment(tmp_path, capsys):
    uri = f"file://{tmp_path}/emptydb"
    assert main(["trace", "nothing-here", "--db", uri]) == 1
    assert "error:" in capsys.readouterr().out


# ------------------------------------------------------------- db verbs


def _seed_db(tmp_path, docs=5):
    from repro.db import connect

    uri = f"file://{tmp_path}/store"
    db = connect(uri)
    for i in range(docs):
        db["runs"].insert_one({"_id": f"r{i}", "n": i})
    db.save()
    db.close()
    return uri


def test_db_stats(tmp_path, capsys):
    uri = _seed_db(tmp_path)
    assert main(["db", "stats", "--db", uri]) == 0
    out = capsys.readouterr().out
    assert "STORAGE ENGINE" in out
    assert "runs" in out
    assert "filestore:" in out


def test_db_compact(tmp_path, capsys):
    uri = _seed_db(tmp_path, docs=40)
    assert main(["db", "compact", "--db", uri]) == 0
    out = capsys.readouterr().out
    assert "runs: merged 40 WAL records" in out
    # A second pass finds every WAL empty: nothing to do.
    assert main(["db", "compact", "--db", uri]) == 0
    assert "nothing to compact" in capsys.readouterr().out


def test_db_scrub_clean_store(tmp_path, capsys):
    uri = _seed_db(tmp_path)
    from repro.db import connect

    db = connect(uri)
    db.files.put_bytes(b"artifact payload")
    db.close()
    assert main(["db", "scrub", "--db", uri]) == 0
    out = capsys.readouterr().out
    assert "scanned      1" in out
    assert "quarantined  0" in out


def test_db_scrub_flags_corruption(tmp_path, capsys):
    uri = _seed_db(tmp_path)
    from repro.db import connect

    db = connect(uri)
    digest = db.files.put_bytes(b"good bytes")
    db.close()
    blob = tmp_path / "store" / "files" / digest[:2] / digest
    blob.write_bytes(b"rotted")
    assert main(["db", "scrub", "--db", uri]) == 1
    out = capsys.readouterr().out
    assert f"quarantined {digest}" in out


def test_db_recover(tmp_path, capsys):
    uri = _seed_db(tmp_path)
    assert main(["db", "recover", "--db", uri]) == 0
    out = capsys.readouterr().out
    assert "CRASH RECOVERY" in out
    assert "runs" in out


def test_db_recover_empty(tmp_path, capsys):
    assert main(["db", "recover", "--db", f"file://{tmp_path}"]) == 0
    assert "no persisted collections" in capsys.readouterr().out


@pytest.mark.parametrize(
    "verb",
    [
        ["resume", "boot-tests"], ["cache", "stats"],
        ["cache", "--kind", "ckpt", "stats"],
        ["db", "stats"], ["trace", "boot-tests"], ["pipeline", "status"],
    ],
    ids=["resume", "cache", "ckpt", "db", "trace", "pipeline"],
)
def test_read_side_verbs_do_not_create_a_database(tmp_path, capsys, verb):
    """A mistyped ``--db`` path is an error, not an empty answer and a
    new directory; the writing verbs still create what is missing."""
    typo = tmp_path / "typo"
    assert main(verb + ["--db", f"file://{typo}"]) == 1
    assert capsys.readouterr().out == f"error: no database at {typo}\n"
    assert not typo.exists()


def test_db_bad_uri(capsys):
    assert main(["db", "stats", "--db", "bogus://nope"]) == 1
    assert "error:" in capsys.readouterr().out


# ----------------------------------------------- cache verb, run and ckpt
#
# The verb reads entry documents other commits wrote, so the primed
# entries are spelled out field by field; the expected text is what the
# commit before the shared memo protocol printed (as two verbs; a hit
# tally is counted from the run documents that say whom they adopted).


def _primed_memo_db(tmp_path):
    from repro.art import ArtifactDB
    from repro.db import connect

    uri = f"file://{tmp_path}/memodb"
    db = ArtifactDB(connect(uri))
    run_cache = db.database.collection("run_cache")
    for index, (fingerprint, kind, image) in enumerate(
        [("aa11" * 16, "fs", "d1" * 16), ("aa22" * 16, "fs", "d1" * 16),
         ("bb33" * 16, "gpu", "d2" * 16)]
    ):
        run_cache.insert_one(
            {
                "_id": f"cache-{fingerprint}",
                "fingerprint": fingerprint,
                "kind": kind,
                "artifact_hashes": {"disk_image": image},
                "run_id": f"0000000{index}-run",
                "status": "done",
                "results": {"success": True},
                "stored_at_wall": f"2021-03-0{index + 1}T10:00:00.123456",
            }
        )
        adopter = {
            "cache_hit": True, "cached_from": f"0000000{index}-run",
            "spec": {"kind": "gpu", "artifacts": {"gem5": "e1"}},
        }
        for serial in range(index):
            db.put_run(dict(adopter, _id=f"adopter-{index}-{serial}"))
    checkpoints = db.database.collection("checkpoints")
    blobs = []
    for index, (prefix, boot_type) in enumerate(
        [("cc44" * 16, "init"), ("dd55" * 16, "systemd")]
    ):
        blobs.append(db.upload_file(f"payload {index}".encode()))
        checkpoints.insert_one(
            {
                "_id": f"ckpt-{prefix}",
                "prefix": prefix,
                "checkpoint_id": f"ckpt-id-{index}",
                "file_id": blobs[-1],
                "kernel_version": "5.4.49",
                "boot_type": boot_type,
                "num_cpus": 2 ** index,
                "memory_system": "classic",
                "boot_seconds": 1.25 + index,
                "stored_at_wall": f"2021-03-0{index + 1}T11:00:00.123456",
            }
        )
    db.save()
    return uri, blobs


def test_cache_verb(tmp_path, capsys):
    uri, _ = _primed_memo_db(tmp_path)
    assert main(["cache", "stats", "--db", uri]) == 0
    assert capsys.readouterr().out == (
        "entries    3\n"
        "adoptions  3\n"
        "  fs       2\n"
        "  gpu      1\n"
    )
    assert main(["cache", "ls", "--db", uri]) == 0
    assert capsys.readouterr().out == (
        "RESULT CACHE\n"
        "Fingerprint  | Kind | Run      | Hits | Stored             \n"
        "-------------+------+----------+------+--------------------\n"
        "aa11aa11aa11 | fs   | 00000000 | 0    | 2021-03-01T10:00:00\n"
        "aa22aa22aa22 | fs   | 00000001 | 1    | 2021-03-02T10:00:00\n"
        "bb33bb33bb33 | gpu  | 00000002 | 2    | 2021-03-03T10:00:00\n"
    )
    assert main(["cache", "invalidate", "--db", uri]) == 2
    assert capsys.readouterr().out == (
        "error: invalidate needs a fingerprint or artifact hash\n"
    )
    assert main(["cache", "invalidate", "nomatch", "--db", uri]) == 1
    assert capsys.readouterr().out == "no cache entries match 'nomatch'\n"
    # "aa" abbreviates two fingerprints: refuse to guess.
    assert main(["cache", "invalidate", "aa", "--db", uri]) == 2
    assert capsys.readouterr().out.startswith("error: ambiguous prefix 'aa'")
    assert main(["cache", "invalidate", "bb33", "--db", uri]) == 0
    assert capsys.readouterr().out == (
        "evicted 1 cache entry; "
        "dependent runs will re-execute on next launch\n"
    )
    # An artifact hash cascades to every run that consumed the image.
    assert main(["cache", "invalidate", "d1" * 16, "--db", uri]) == 0
    assert capsys.readouterr().out == (
        "evicted 2 cache entries; "
        "dependent runs will re-execute on next launch\n"
    )
    assert main(["cache", "stats", "--db", uri]) == 0
    assert capsys.readouterr().out == "entries    0\nadoptions  0\n"
    assert main(["cache", "stats", "--db", "nosuch://x"]) == 1
    assert capsys.readouterr().out.startswith("error: ")


def test_ckpt_verb(tmp_path, capsys):
    from repro.db import connect

    uri, blobs = _primed_memo_db(tmp_path)
    ckpt = ["cache", "--kind", "ckpt", "--db", uri]
    # No run document restored either boot.
    assert main(ckpt + ["stats"]) == 0
    assert capsys.readouterr().out == (
        "entries       2\n"
        "restores      0\n"
        "boot seconds  3.5\n"
        "  init        1\n"
        "  systemd     1\n"
    )
    assert main(ckpt + ["ls"]) == 0
    assert capsys.readouterr().out == (
        "CHECKPOINT STORE\n"
        "Prefix       | Kernel | Boot    | CPUs | Restores | Stored"
        "             \n"
        "-------------+--------+---------+------+----------+-------"
        "-------------\n"
        "cc44cc44cc44 | 5.4.49 | init    | 1    | 0        | "
        "2021-03-01T11:00:00\n"
        "dd55dd55dd55 | 5.4.49 | systemd | 2    | 0        | "
        "2021-03-02T11:00:00\n"
    )
    assert main(["cache", "gc", "--db", uri]) == 2
    assert capsys.readouterr().out.startswith("error: gc needs --kind ckpt")
    # No run document references either boot prefix: both are orphans,
    # and their payload blobs go with them.
    assert main(ckpt + ["gc"]) == 0
    assert capsys.readouterr().out == (
        "evicted 2 orphaned checkpoints (0 live boot prefixes)\n"
    )
    files = connect(uri).files
    assert [blob in files for blob in blobs] == [False, False]
    assert main(ckpt + ["stats"]) == 0
    assert capsys.readouterr().out == (
        "entries       0\nrestores      0\nboot seconds  0.0\n"
    )
    with pytest.raises(SystemExit):  # the verb this one replaced is gone
        main(["ckpt", "stats", "--db", uri])
