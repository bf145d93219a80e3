"""Tests for the content-addressed RunSpec IR (fingerprinted identity)."""

import pytest

from repro.art import ArtifactDB, Gem5Run, RunSpec
from repro.art.spec import SPEC_SCHEMA_VERSION
from repro.common.errors import ValidationError

from tests.art.test_run_tasks import fs_artifacts, make_run  # noqa: F401


HASH_A = "a" * 64
HASH_B = "b" * 64


def make_spec(**overrides):
    fields = dict(
        kind="fs",
        artifacts={"gem5": HASH_A, "disk_image": HASH_B},
        params={"cpu_type": "timing", "num_cpus": 2},
        build={"version": "20.1.0.4", "isa": "X86"},
    )
    fields.update(overrides)
    return RunSpec(**fields)


# ------------------------------------------------------------- validation


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError):
        make_spec(kind="se")


def test_spec_needs_artifacts():
    with pytest.raises(ValidationError):
        make_spec(artifacts={})
    with pytest.raises(ValidationError):
        make_spec(artifacts={"gem5": ""})


def test_spec_is_frozen():
    spec = make_spec()
    with pytest.raises(Exception):
        spec.kind = "gpu"


# ------------------------------------------------------------ fingerprint


def test_fingerprint_is_sha256_hex_and_stable():
    spec = make_spec()
    fingerprint = spec.fingerprint()
    assert len(fingerprint) == 64
    assert int(fingerprint, 16) >= 0
    assert spec.fingerprint() == fingerprint  # pure function of the spec


def test_fingerprint_is_order_independent():
    """The regression the canonical form exists for: permuted insertion
    order of artifacts and params must collide to one fingerprint."""
    forward = make_spec(
        artifacts={"gem5": HASH_A, "disk_image": HASH_B},
        params={"cpu_type": "timing", "num_cpus": 2},
    )
    backward = make_spec(
        artifacts={"disk_image": HASH_B, "gem5": HASH_A},
        params={"num_cpus": 2, "cpu_type": "timing"},
    )
    assert forward.fingerprint() == backward.fingerprint()


def test_fingerprint_normalizes_integral_floats():
    as_int = make_spec(params={"num_cpus": 2})
    as_float = make_spec(params={"num_cpus": 2.0})
    assert as_int.fingerprint() == as_float.fingerprint()


def test_fingerprint_distinguishes_real_differences():
    base = make_spec()
    assert base.fingerprint() != make_spec(
        params={"cpu_type": "timing", "num_cpus": 4}
    ).fingerprint()
    assert base.fingerprint() != make_spec(
        artifacts={"gem5": HASH_B, "disk_image": HASH_B}
    ).fingerprint()
    assert base.fingerprint() != make_spec(
        build={"version": "21.0.0.0", "isa": "X86"}
    ).fingerprint()


def test_canonical_document_carries_schema_version():
    assert make_spec().canonical_document()["schema"] == SPEC_SCHEMA_VERSION


# ----------------------------------------------------------------- storage


def test_document_round_trip_preserves_fingerprint():
    spec = make_spec()
    reread = RunSpec.from_document(spec.to_document())
    assert reread == spec
    assert reread.fingerprint() == spec.fingerprint()


# ------------------------------------------------------- run integration


def test_create_fs_run_persists_spec_and_fingerprint(db, fs_artifacts):
    run = make_run(db, fs_artifacts)
    assert run.spec is not None
    assert run.fingerprint == run.spec.fingerprint()
    doc = db.get_run(run.run_id)
    assert doc["fingerprint"] == run.fingerprint
    assert doc["spec"]["kind"] == "fs"
    # Identity keys on content hashes, never instance UUIDs.
    assert doc["spec"]["artifacts"]["gem5"] == fs_artifacts["gem5"].hash
    # Build info lifted from the gem5 artifact metadata.
    assert doc["spec"]["build"].get("version")


def test_identical_runs_share_a_fingerprint_distinct_uuids(db, fs_artifacts):
    first = make_run(db, fs_artifacts)
    second = make_run(db, fs_artifacts)
    assert first.run_id != second.run_id
    assert first.fingerprint == second.fingerprint


def test_param_permutation_collides_via_runs(db, fs_artifacts):
    """Sweep-axis declaration order must not fork run identity."""
    one = make_run(db, fs_artifacts, cpu_type="timing", num_cpus=2)
    two = make_run(db, fs_artifacts, num_cpus=2, cpu_type="timing")
    assert one.fingerprint == two.fingerprint


def test_load_rehydrates_spec_and_fingerprint(db, fs_artifacts):
    run = make_run(db, fs_artifacts)
    loaded = Gem5Run.load(db, run.run_id)
    assert loaded.fingerprint == run.fingerprint
    assert loaded.spec == run.spec


def test_load_rejects_a_document_without_spec(db, fs_artifacts):
    """Every run document has carried ``spec`` since the IR exists;
    one without it is rejected by id, not silently rebuilt."""
    run = make_run(db, fs_artifacts)
    doc = db.get_run(run.run_id)
    doc.pop("spec")
    db.runs.replace_one({"_id": run.run_id}, doc)
    with pytest.raises(ValidationError, match=run.run_id):
        Gem5Run.load(db, run.run_id)


@pytest.fixture
def db():
    return ArtifactDB()
