"""Tests for DiskImage semantics and serialization."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import (
    NotFoundError,
    StateError,
    ValidationError,
)
from repro.vfs import DiskImage, VirtualDirectory, VirtualFile


@pytest.fixture
def image():
    return DiskImage("parsec-ubuntu-18.04", metadata={"distro": "ubuntu"})


def test_write_and_read(image):
    image.write_file("/home/gem5/hello.txt", "hi")
    assert image.read_text("/home/gem5/hello.txt") == "hi"
    assert image.read_file("/home/gem5/hello.txt") == b"hi"


def test_write_creates_parents(image):
    image.write_file("/a/b/c/d", b"x")
    assert image.listdir("/a/b/c") == ["d"]


def test_overwrite(image):
    image.write_file("/f", "one")
    image.write_file("/f", "two")
    assert image.read_text("/f") == "two"


def test_executable_flag(image):
    image.write_file("/bin/run.sh", "#!/bin/sh", executable=True)
    image.write_file("/etc/motd", "hello")
    assert dict(image.walk())["/bin/run.sh"].executable
    assert not dict(image.walk())["/etc/motd"].executable


def test_exists_and_missing(image):
    image.write_file("/x", b"")
    assert image.exists("/x")
    assert not image.exists("/y")
    with pytest.raises(NotFoundError):
        image.read_file("/y")


def test_read_directory_raises(image):
    image.mkdir("/dir")
    with pytest.raises(ValidationError):
        image.read_file("/dir")


def test_listdir_on_file_raises(image):
    image.write_file("/f", b"")
    with pytest.raises(ValidationError):
        image.listdir("/f")


def test_file_in_directory_position_raises(image):
    image.write_file("/a", b"")
    with pytest.raises(ValidationError):
        image.write_file("/a/b", b"")


def test_remove(image):
    image.write_file("/a/b", b"")
    image.remove("/a/b")
    assert not image.exists("/a/b")
    assert image.exists("/a")
    with pytest.raises(ValidationError):
        image.remove("/")


def test_walk_sorted(image):
    image.write_file("/b/two", b"")
    image.write_file("/a/one", b"")
    image.write_file("/a/three", b"")
    paths = [path for path, _ in image.walk()]
    assert paths == ["/a/one", "/a/three", "/b/two"]


def test_counts(image):
    image.write_file("/a", b"12345")
    image.write_file("/b", b"123")
    assert image.file_count() == 2
    assert image.total_size() == 8


def test_serialization_roundtrip(image):
    image.write_file("/bin/app", b"\x7fELF", executable=True)
    image.mkdir("/empty")
    clone = DiskImage.from_dict(image.to_dict())
    assert clone == image
    assert dict(clone.walk())["/bin/app"].executable
    assert clone.listdir("/empty") == []


def test_save_load(tmp_path, image):
    image.write_file("/data", b"\x00\x01\x02")
    path = str(tmp_path / "image.json")
    image.save(path)
    assert DiskImage.load(path) == image


def test_content_hash_changes_with_content(image):
    before = image.content_hash()
    image.write_file("/new", b"data")
    assert image.content_hash() != before


def test_content_hash_changes_with_metadata(image):
    before = image.content_hash()
    image.metadata["kernel"] = "5.4.51"
    assert image.content_hash() != before


def test_content_hash_deterministic():
    def build():
        img = DiskImage("same", metadata={"a": 1})
        img.write_file("/z", b"z")
        img.write_file("/a", b"a")
        return img

    assert build().content_hash() == build().content_hash()


def test_image_requires_name():
    with pytest.raises(ValidationError):
        DiskImage("")


def test_virtualfile_validation():
    with pytest.raises(ValidationError):
        VirtualFile(content="not bytes")


def test_directory_add_validation():
    directory = VirtualDirectory()
    directory.add("ok", VirtualFile())
    with pytest.raises(StateError):
        directory.add("ok", VirtualFile())
    with pytest.raises(ValidationError):
        directory.add("bad/name", VirtualFile())
    with pytest.raises(NotFoundError):
        directory.get("missing")
    with pytest.raises(NotFoundError):
        directory.remove("missing")


name_strategy = st.text(
    alphabet="abcdefgh", min_size=1, max_size=6
)


@given(
    st.dictionaries(
        st.lists(name_strategy, min_size=1, max_size=3).map(
            lambda parts: "/" + "/".join(parts)
        ),
        st.binary(max_size=32),
        max_size=8,
    )
)
def test_property_roundtrip_any_tree(files):
    image = DiskImage("prop")
    written = {}
    for path, content in files.items():
        try:
            image.write_file(path, content)
            written[path] = content
        except ValidationError:
            # A shorter path may already exist as a file where this path
            # needs a directory; skipping mirrors real FS behaviour.
            pass
    clone = DiskImage.from_dict(image.to_dict())
    assert clone == image
    assert clone.content_hash() == image.content_hash()
