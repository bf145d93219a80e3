"""Tests for the text-table renderer and git provenance reader."""

import pytest

from repro.common.gitinfo import (
    GitInfo,
    read_git_info,
    simulated_revision,
)
from repro.common.tables import TextTable


def test_table_render_alignment():
    table = TextTable(["app", "time"])
    table.add_row(["ferret", 1.25])
    table.add_row(["blackscholes", 10])
    text = table.render()
    lines = text.splitlines()
    assert lines[0].startswith("app")
    assert all(len(line) == len(lines[0]) for line in lines[1:])


def test_table_title():
    table = TextTable(["x"], title="My Title")
    table.add_row([1])
    assert table.render().splitlines()[0] == "My Title"


def test_table_rejects_ragged_rows():
    table = TextTable(["a", "b"])
    with pytest.raises(ValueError):
        table.add_row([1])


def test_table_len():
    table = TextTable(["a"])
    assert len(table) == 0
    table.add_row([1])
    assert len(table) == 1


def test_simulated_revision_stable():
    a = simulated_revision("url", "v1")
    assert a == simulated_revision("url", "v1")
    assert a != simulated_revision("url", "v2")


def test_read_git_info_none_for_plain_dir(tmp_path):
    assert read_git_info(str(tmp_path)) is None


def test_read_real_git_head_detached(tmp_path):
    git_dir = tmp_path / ".git"
    git_dir.mkdir()
    (git_dir / "HEAD").write_text("0123456789abcdef0123456789abcdef01234567\n")
    info = read_git_info(str(tmp_path))
    assert info.revision == "0123456789abcdef0123456789abcdef01234567"


def test_read_real_git_ref_and_origin(tmp_path):
    git_dir = tmp_path / ".git"
    (git_dir / "refs" / "heads").mkdir(parents=True)
    (git_dir / "HEAD").write_text("ref: refs/heads/main\n")
    (git_dir / "refs" / "heads" / "main").write_text("a" * 40 + "\n")
    (git_dir / "config").write_text(
        '[remote "origin"]\n\turl = https://example.com/repo.git\n'
    )
    info = read_git_info(str(tmp_path))
    assert info == GitInfo("https://example.com/repo.git", "a" * 40)


def test_read_real_git_packed_refs(tmp_path):
    git_dir = tmp_path / ".git"
    git_dir.mkdir()
    (git_dir / "HEAD").write_text("ref: refs/heads/main\n")
    (git_dir / "packed-refs").write_text(
        "# pack-refs with: peeled fully-peeled sorted\n"
        + "b" * 40
        + " refs/heads/main\n"
    )
    info = read_git_info(str(tmp_path))
    assert info.revision == "b" * 40
