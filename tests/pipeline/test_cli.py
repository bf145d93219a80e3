"""CLI round trips for ``repro reproduce`` and ``repro pipeline``."""

import pytest

from repro.art import ArtifactDB
from repro.cli import main
from repro.db import connect
from repro.pipeline import StageCache
from tests.pipeline import targets

MANIFEST = """
pipeline: cli-demo
stages:
  - name: make
    kind: python
    params: {target: "tests.pipeline.targets:emit", value: 4}
    gates:
      - {kind: at_least, path: value, value: 3.5}
  - name: sum
    kind: python
    inputs: [make]
    params: {target: "tests.pipeline.targets:add_inputs"}
"""


@pytest.fixture(autouse=True)
def _reset_targets():
    targets.reset()
    yield
    targets.reset()


@pytest.fixture
def manifest_path(tmp_path):
    path = tmp_path / "demo.yaml"
    path.write_text(MANIFEST)
    return str(path)


@pytest.fixture
def db_uri(tmp_path):
    return f"file://{tmp_path / 'db'}"


def test_reproduce_cold_then_cached(manifest_path, db_uri, capsys):
    assert main(["reproduce", manifest_path, "--db", db_uri]) == 0
    out = capsys.readouterr().out
    assert "executed" in out
    assert "succeeded" in out

    targets.reset()
    assert (
        main(
            [
                "reproduce", manifest_path, "--db", db_uri,
                "--expect-cache-hits", "90",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "cache_hit" in out
    assert targets.CALLS == []


def test_reproduce_expect_cache_hits_fails_cold(manifest_path, db_uri, capsys):
    assert (
        main(
            [
                "reproduce", manifest_path, "--db", db_uri,
                "--expect-cache-hits", "90",
            ]
        )
        == 1
    )
    # The summary is output; the failed expectation is an error, on
    # stderr, so it does not survive `2>/dev/null` into a captured log.
    captured = capsys.readouterr()
    assert "cache hit" in captured.out
    assert "expected" not in captured.out
    assert captured.err == (
        "error: expected >= 90% stage cache hits, observed 0%\n"
    )


def test_reproduce_no_stage_cache(manifest_path, db_uri, capsys):
    assert main(["reproduce", manifest_path, "--db", db_uri]) == 0
    capsys.readouterr()
    targets.reset()
    assert (
        main(
            ["reproduce", manifest_path, "--db", db_uri, "--no-stage-cache"]
        )
        == 0
    )
    assert "cache_hit" not in capsys.readouterr().out
    assert targets.CALLS == ["make", "sum"]


def test_reproduce_set_override_reexecutes_dependents(
    manifest_path, db_uri, capsys
):
    assert main(["reproduce", manifest_path, "--db", db_uri]) == 0
    capsys.readouterr()
    targets.reset()
    assert (
        main(
            [
                "reproduce", manifest_path, "--db", db_uri,
                "--set", "make.value=6",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "executed" in out
    assert targets.CALLS == ["make", "sum"]


def test_reproduce_failing_gate_exits_nonzero(tmp_path, db_uri, capsys):
    path = tmp_path / "odd.yaml"
    path.write_text(MANIFEST.replace("value: 4", "value: 3"))
    assert main(["reproduce", str(path), "--db", db_uri]) == 1
    out = capsys.readouterr().out
    assert "failed" in out


def test_reproduce_bad_manifest_exits_2(db_uri, capsys):
    assert main(["reproduce", "/nonexistent.yaml", "--db", db_uri]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_pipeline_status_and_explain(manifest_path, db_uri, capsys):
    main(["reproduce", manifest_path, "--db", db_uri])
    main(["reproduce", manifest_path, "--db", db_uri])
    capsys.readouterr()

    assert main(["pipeline", "status", "--db", db_uri]) == 0
    out = capsys.readouterr().out
    assert "cli-demo" in out
    assert out.count("succeeded") >= 2

    assert main(["pipeline", "explain", "--db", db_uri]) == 0
    out = capsys.readouterr().out
    assert "cli-demo" in out
    assert "make" in out and "sum" in out
    assert "cache_hit" in out
    # Gate verdicts are part of the provenance record.
    assert "gate pass: value=4 >= 3.5: pass" in out


def test_pipeline_explain_unknown_target(db_uri, manifest_path, capsys):
    main(["reproduce", manifest_path, "--db", db_uri])
    capsys.readouterr()
    assert main(["pipeline", "explain", "ghost", "--db", db_uri]) == 1
    assert "ghost" in capsys.readouterr().err


def test_pipeline_rerun_stage_evicts_dependents(
    manifest_path, db_uri, capsys
):
    main(["reproduce", manifest_path, "--db", db_uri])
    capsys.readouterr()
    targets.reset()
    assert (
        main(["pipeline", "rerun", "--db", db_uri, "--stage", "make"]) == 0
    )
    out = capsys.readouterr().out
    assert "evicted 2 cached results for make, sum" in out
    # Evicting make also evicts its dependent sum: both re-execute.
    assert targets.CALLS == ["make", "sum"]
    # Two cache entries went; the journal keeps both runs, 2 + 4 documents.
    assert main(["db", "stats", "--db", db_uri]) == 0
    assert "pipeline_runs | 6 " in capsys.readouterr().out


def test_cache_verb_on_the_stage_cache(manifest_path, db_uri, capsys):
    """``cache --kind stage``: hits are the journal's ``cache_hit`` records."""
    main(["reproduce", manifest_path, "--db", db_uri])
    main(["reproduce", manifest_path, "--db", db_uri])
    capsys.readouterr()
    stage = ["cache", "--kind", "stage", "--db", db_uri]
    assert main(stage + ["stats"]) == 0
    assert capsys.readouterr().out == (
        "entries    2\nadoptions  2\n  python   2\n"
    )
    assert main(stage + ["ls"]) == 0
    title, header, _, *rows = capsys.readouterr().out.splitlines()
    assert title == "STAGE CACHE" and header.split()[-3] == "Hits"
    hits = [row.split()[2:9:6] for row in rows]
    assert hits == [["make", "1"], ["sum", "1"]]
    # A stage's name evicts its entry only (`rerun --stage` cascades).
    assert main(stage + ["invalidate", "make"]) == 0
    targets.reset()
    assert main(["reproduce", manifest_path, "--db", db_uri]) == 0
    assert targets.CALLS == ["make"]


def test_the_stage_cache_alone_is_indexed(manifest_path, db_uri):
    """Without a journal opened beside it, a fingerprint lookup reads
    its index bucket, not the whole ``pipeline_runs`` collection."""
    main(["reproduce", manifest_path, "--db", db_uri])
    with connect(db_uri) as database:
        cache = StageCache(ArtifactDB(database))
        entry = cache.entries()[0]
        query = {"fingerprint": entry["fingerprint"]}
        assert len(cache.collection._candidates(query)) == 1
        assert cache.lookup(entry["fingerprint"])["_id"] == entry["_id"]


def test_pipeline_rerun_without_stage_is_cached(
    manifest_path, db_uri, capsys
):
    main(["reproduce", manifest_path, "--db", db_uri])
    capsys.readouterr()
    targets.reset()
    assert main(["pipeline", "rerun", "--db", db_uri]) == 0
    assert "cache_hit" in capsys.readouterr().out
    assert targets.CALLS == []


def test_pipeline_status_empty_db(tmp_path, capsys):
    uri = f"file://{tmp_path}"  # exists, holds nothing
    for action in ("status", "explain", "rerun"):
        assert main(["pipeline", action, "--db", uri]) == 1
        assert capsys.readouterr().out == "no pipeline runs journaled\n"
