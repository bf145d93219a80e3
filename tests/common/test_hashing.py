"""Tests for repro.common.hashing."""

import os

from hypothesis import given, strategies as st

from repro.common.hashing import (
    md5_bytes,
    md5_file,
    md5_text,
    md5_tree,
    sha256_bytes,
)


def test_md5_bytes_known_value():
    assert md5_bytes(b"") == "d41d8cd98f00b204e9800998ecf8427e"


def test_md5_text_matches_bytes():
    assert md5_text("hello") == md5_bytes(b"hello")


def test_md5_file(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"some content")
    assert md5_file(str(path)) == md5_bytes(b"some content")


def test_md5_file_large_chunked(tmp_path):
    data = os.urandom(3 * 1024 * 1024)
    path = tmp_path / "big.bin"
    path.write_bytes(data)
    assert md5_file(str(path)) == md5_bytes(data)


def test_md5_tree_stable_across_creation_order(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for root, order in ((a, ["x", "y"]), (b, ["y", "x"])):
        sub = root / "dir"
        sub.mkdir(parents=True)
        for name in order:
            (sub / name).write_text(f"content-{name}")
    assert md5_tree(str(a)) == md5_tree(str(b))


def test_md5_tree_detects_content_change(tmp_path):
    (tmp_path / "f").write_text("one")
    before = md5_tree(str(tmp_path))
    (tmp_path / "f").write_text("two")
    assert md5_tree(str(tmp_path)) != before


def test_md5_tree_detects_rename(tmp_path):
    (tmp_path / "f").write_text("one")
    before = md5_tree(str(tmp_path))
    (tmp_path / "f").rename(tmp_path / "g")
    assert md5_tree(str(tmp_path)) != before


def test_sha256_bytes_known_value():
    assert sha256_bytes(b"") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


@given(st.binary())
def test_md5_deterministic(data):
    assert md5_bytes(data) == md5_bytes(data)


@given(st.binary(), st.binary())
def test_md5_distinguishes_typical_inputs(a, b):
    if a != b:
        assert md5_bytes(a) != md5_bytes(b)
