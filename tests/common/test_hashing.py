"""Tests for repro.common.hashing."""

import hashlib
import os
import subprocess
import sys

from hypothesis import given, strategies as st

from repro.common.hashing import (
    md5_bytes,
    md5_file,
    md5_text,
    md5_tree,
    sha256_bytes,
    sha256_text,
)

NO_OPENSSL = """
import importlib, pkgutil, sys, repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":  # that one runs the CLI
        importlib.import_module(info.name)
assert "_hashlib" not in sys.modules, "a repro module maps OpenSSL"
own = sys.modules.pop("repro.common.hashing")
sys.modules.update(_md5=None, _sha256=None, _sha2=None)
fallback = importlib.import_module("repro.common.hashing")
for new, old in ((fallback.md5, own.md5), (fallback.sha256, own.sha256)):
    assert new is not old and new(b"gem5").digest() == old(b"gem5").digest()
"""


@given(data=st.binary(), text=st.text())
def test_every_digest_is_hashlibs(tmp_path_factory, data, text):
    path = tmp_path_factory.getbasetemp() / "drawn.bin"
    path.write_bytes(data)
    expected = [hashlib.md5(data), hashlib.md5(data), hashlib.sha256(data),
                hashlib.md5(text.encode()), hashlib.sha256(text.encode())]
    assert [md5_bytes(data), md5_file(str(path)), sha256_bytes(data),
            md5_text(text), sha256_text(text)] == [
        digest.hexdigest() for digest in expected]


def test_no_module_maps_openssl_and_the_fallback_agrees():
    subprocess.run([sys.executable, "-c", NO_OPENSSL], check=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))


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


@given(st.binary(), st.binary())
def test_md5_distinguishes_typical_inputs(a, b):
    if a != b:
        assert md5_bytes(a) != md5_bytes(b)
