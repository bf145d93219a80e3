"""Tests for the static-analysis engine: walker, dispatch, pragmas,
and the ``repro lint`` CLI and its text report."""

from repro.analysis import lint_paths
from repro.analysis.dataflow import DETERMINISM_RULES
from repro.analysis.engine import Finding, iter_python_files, logical_module
from repro.cli import main
from tests.analysis.helpers import lint_source as analyze


# ------------------------------------------------------------------ engine


def test_logical_module_maps_paths_to_dotted_modules():
    assert logical_module("src/repro/sim/engine.py") == "repro.sim.engine"
    assert logical_module("src/repro/sim/__init__.py") == "repro.sim"
    assert logical_module("/tmp/x/repro/chaos/a.py") == "repro.chaos.a"
    assert logical_module("standalone.py") == "standalone"
    assert logical_module("src/repro/sim") == "repro.sim"


def test_iter_python_files_is_sorted_and_skips_pycache(tmp_path):
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "c.py").write_text("x = 1\n")
    (tmp_path / "note.txt").write_text("not python\n")
    names = [p.split("/")[-1] for p in iter_python_files([str(tmp_path)])]
    assert names == ["a.py", "b.py"]


def test_syntax_error_becomes_parse_finding():
    findings = analyze("def broken(:\n")
    assert len(findings) == 1
    assert (findings[0].rule_id, findings[0].snippet) == ("PARSE", "")


def test_import_alias_resolution_catches_renamed_wallclock():
    findings = analyze(
        "from time import time as _clock\n"
        "def f():\n"
        "    return _clock()\n"
    )
    assert any(f.rule_id == "DET-WALLCLOCK" for f in findings)


def test_noqa_pragma_suppresses_named_rule_only():
    source = (
        "import time\n"
        "def f():\n"
        "    a = time.time()  # repro: noqa[DET-WALLCLOCK]\n"
        "    b = time.time()\n"
        "    return a, b\n"
    )
    findings = analyze(source)
    lines = [f.line for f in findings if f.rule_id == "DET-WALLCLOCK"]
    assert lines == [4]


def test_bare_noqa_suppresses_all_rules_on_line():
    source = (
        "import time\n"
        "import uuid\n"
        "def f():\n"
        "    return time.time(), uuid.uuid4()  # repro: noqa\n"
    )
    assert analyze(source) == []


def test_rule_ids_are_unique():
    """One finding per violation: ``lint_paths`` instantiates every
    rule class, so an id may belong to only one of them."""
    ids = [rule.rule_id for rule in DETERMINISM_RULES]
    assert len(ids) == len(set(ids)) == 4


# --------------------------------------------------------------------- cli


def _write_bad_module(tmp_path):
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    bad = pkg / "bad.py"
    bad.write_text(
        "import time\n"
        "def f():\n"
        "    return time.time()\n"
    )
    return bad


def test_cli_lint_clean_tree_exits_zero(tmp_path, capsys):
    good = tmp_path / "good.py"
    good.write_text("def f():\n    return 1\n")
    assert main(["lint", str(good)]) == 0
    assert capsys.readouterr().out == "clean: no findings\n"


def test_cli_lint_error_exits_one_with_text_report(tmp_path, capsys):
    """``FILE:LINE:COL: RULE-ID message``, the offending line indented
    below it, and a tally."""
    bad = _write_bad_module(tmp_path)
    assert main(["lint", str(bad)]) == 1
    first, snippet, tally = capsys.readouterr().out.splitlines()
    assert first.startswith(
        f"{bad}:3:11: DET-WALLCLOCK time.time() outside the choke points;"
    )
    assert snippet == "    return time.time()"
    assert tally == "found 1 finding(s)"


def test_text_reporter_mentions_location_and_counts(tmp_path, capsys):
    """The text report names the rule and ``FILE:LINE`` of every
    finding, and tallies them; an empty report says it is clean."""
    fixture = tmp_path / "fixture.py"
    fixture.write_text("import time\ndef f():\n    return time.time()\n")
    assert main(["lint", str(fixture)]) == 1
    text = capsys.readouterr().out
    assert "DET-WALLCLOCK" in text
    assert "fixture.py:3" in text
    assert text.endswith("found 1 finding(s)\n")
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert main(["lint", str(good)]) == 0
    assert capsys.readouterr().out == "clean: no findings\n"


def test_cli_lint_fails_on_warnings_too(tmp_path, capsys):
    """One mode: every finding fails the run, ``DET-ORDER``'s as much as
    a raw clock read's, with no flag (tests/test_cli.py pins that the
    old mode and format flags no longer parse)."""
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    warn = pkg / "warn.py"
    warn.write_text(
        "def f():\n"
        "    for x in {1, 2, 3}:\n"
        "        pass\n"
    )
    assert main(["lint", str(warn)]) == 1
    assert "DET-ORDER" in capsys.readouterr().out


def test_cli_lint_usage_errors(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "nope")]) == 2


def test_cli_lint_usage_error_leaves_stdout_to_the_report(tmp_path, capsys):
    """``repro lint /missing > report.txt``: the error goes to stderr,
    so the redirected report is not polluted by it."""
    missing = tmp_path / "nope"
    assert main(["lint", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no such path(s): {missing}\n"


def test_lint_paths_walks_directories(tmp_path):
    bad = _write_bad_module(tmp_path)
    (finding,) = lint_paths([str(tmp_path)])
    assert finding == Finding(
        str(bad), 3, 11, "DET-WALLCLOCK", finding.message,
        "return time.time()",
    )
