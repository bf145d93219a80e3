"""Tests for artifact registration (the paper's Fig 3 semantics)."""

import pytest
from hypothesis import given, strategies as st

from repro.art import (
    Artifact,
    ArtifactDB,
    register_disk_image,
    register_gem5_binary,
    register_kernel_binary,
    register_repo,
)
from repro.art.artifact import load_disk_image
from repro.common.errors import (
    DuplicateError,
    NotFoundError,
    ValidationError,
)
from repro.guest import get_kernel
from repro.sim import Gem5Build
from repro.vfs import DiskImage


@pytest.fixture
def db():
    return ArtifactDB()


def test_register_from_bytes(db):
    artifact = Artifact.register_artifact(
        db,
        name="gem5",
        typ="gem5 binary",
        path="gem5/build/X86/gem5.opt",
        command="scons build/X86/gem5.opt -j8",
        cwd="gem5/",
        documentation="gem5 binary for testing",
        content=b"fake binary",
    )
    assert artifact.id
    assert artifact.hash
    assert artifact.payload() == b"fake binary"
    stored = db.get_artifact(artifact.id)
    assert stored["command"].startswith("scons")
    assert stored["type"] == "gem5 binary"


def test_register_requires_name_and_type(db):
    with pytest.raises(ValidationError):
        Artifact.register_artifact(
            db, name="", typ="x", path="p", content=b"c"
        )
    with pytest.raises(ValidationError):
        Artifact.register_artifact(
            db, name="x", typ="", path="p", content=b"c"
        )


def test_register_missing_path(db):
    with pytest.raises(ValidationError):
        Artifact.register_artifact(
            db, name="x", typ="file", path="/does/not/exist"
        )


def test_register_host_file(db, tmp_path):
    target = tmp_path / "vmlinux"
    target.write_bytes(b"\x7fELF kernel image")
    artifact = Artifact.register_artifact(
        db, name="vmlinux", typ="kernel", path=str(target)
    )
    assert artifact.payload() == b"\x7fELF kernel image"


def test_register_host_directory(db, tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "main.c").write_text("int main(){}")
    artifact = Artifact.register_artifact(
        db, name="source", typ="source tree", path=str(tmp_path / "src")
    )
    assert artifact.hash
    assert artifact.file_id is None  # trees are hashed, not uploaded


def test_register_git_checkout(db, tmp_path):
    """A directory with a ``.git`` is identified by its HEAD revision,
    not by hashing the tree."""
    git_dir = tmp_path / "gem5" / ".git"
    git_dir.mkdir(parents=True)
    (git_dir / "HEAD").write_text("a" * 40 + "\n")
    (git_dir / "config").write_text(
        '[remote "origin"]\n\turl = https://gem5.googlesource.com\n'
    )
    artifact = Artifact.register_artifact(
        db, name="gem5-src", typ="git repo", path=str(tmp_path / "gem5")
    )
    assert artifact.hash == "a" * 40
    assert artifact.git == {
        "git_url": "https://gem5.googlesource.com",
        "hash": "a" * 40,
    }


def test_duplicate_content_returns_same_artifact(db):
    kwargs = dict(name="blob", typ="file", path="p", content=b"same")
    first = Artifact.register_artifact(db, **kwargs)
    second = Artifact.register_artifact(db, **kwargs)
    assert first.id == second.id
    assert db.artifacts.count() == 1


def test_same_hash_different_attributes_rejected(db):
    Artifact.register_artifact(
        db, name="one", typ="file", path="p", content=b"same"
    )
    with pytest.raises(DuplicateError):
        Artifact.register_artifact(
            db, name="two", typ="file", path="p", content=b"same"
        )


def test_inputs_recorded_as_dependencies(db):
    repo = register_repo(db, "gem5")
    binary = register_gem5_binary(db, Gem5Build(), inputs=[repo])
    assert binary.inputs == [repo.id]


def test_register_repo_deduplicates(db):
    one = register_repo(db, "gem5", version="v20.1.0.4")
    two = register_repo(db, "gem5", version="v20.1.0.4")
    other = register_repo(db, "gem5-new", version="v21.0")
    assert one.id == two.id
    assert one.id != other.id
    assert one.git["git_url"]


def test_register_gem5_binary_metadata(db):
    artifact = register_gem5_binary(
        db, Gem5Build(version="21.0", isa="GCN3_X86")
    )
    assert artifact.metadata["version"] == "21.0"
    assert artifact.metadata["isa"] == "GCN3_X86"
    assert artifact.typ == "gem5 binary"
    assert b"GEM5 21.0" in artifact.payload()


def test_register_kernel_binary(db):
    artifact = register_kernel_binary(db, get_kernel("5.4.49"))
    assert artifact.metadata["kernel_version"] == "5.4.49"
    assert b"5.4.49" in artifact.payload()


def test_disk_image_roundtrip(db):
    image = DiskImage("test-image", metadata={"compiler": "gcc-9.3"})
    image.write_file("/home/gem5/app", b"\x7fELF", executable=True)
    artifact = register_disk_image(db, image)
    restored = load_disk_image(artifact)
    assert restored == image
    assert dict(restored.walk())["/home/gem5/app"].executable


def test_load_disk_image_type_check(db):
    artifact = register_repo(db, "gem5")
    with pytest.raises(ValidationError):
        load_disk_image(artifact)


def test_artifact_load_by_id(db):
    artifact = register_repo(db, "gem5")
    loaded = Artifact.load(db, artifact.id)
    assert loaded.name == "gem5"
    with pytest.raises(NotFoundError):
        Artifact.load(db, "missing-id")


def test_db_contains_and_search(db):
    artifact = register_repo(db, "gem5")
    assert artifact.hash in db
    assert "0" * 32 not in db
    assert db.artifacts.find({"name": "gem5"})[0]["_id"] == artifact.id


def test_camelcase_alias(db):
    artifact = Artifact.registerArtifact(
        db, name="x", typ="file", path="p", content=b"alias"
    )
    assert artifact.name == "x"


@given(st.binary(min_size=1, max_size=64))
def test_property_identical_content_identical_artifact(content):
    db = ArtifactDB()
    one = Artifact.register_artifact(
        db, name="blob", typ="file", path="p", content=content
    )
    two = Artifact.register_artifact(
        db, name="blob", typ="file", path="p", content=content
    )
    assert one.id == two.id
    assert db.artifacts.count() == 1
