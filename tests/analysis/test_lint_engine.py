"""Tests for the static-analysis engine: walker, dispatch, pragmas,
fingerprints, reporters, and the ``repro lint`` CLI."""

import json

from repro.analysis import lint_paths
from repro.analysis.dataflow import (
    CONCURRENCY_RULES,
    DETERMINISM_RULES,
    HYGIENE_RULES,
)
from repro.analysis.engine import (
    SEVERITIES,
    iter_python_files,
    logical_module,
)
from repro.analysis.reporters import render_text
from repro.cli import main
from tests.analysis.helpers import lint_source as analyze


# ------------------------------------------------------------------ engine


def test_logical_module_maps_paths_to_dotted_modules():
    assert logical_module("src/repro/sim/engine.py") == "repro.sim.engine"
    assert logical_module("src/repro/sim/__init__.py") == "repro.sim"
    assert logical_module("/tmp/x/repro/chaos/a.py") == "repro.chaos.a"
    assert logical_module("standalone.py") == "standalone"


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
    assert findings[0].rule_id == "PARSE"
    assert findings[0].severity == "error"


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
        "def f(x=[]):  # repro: noqa\n"
        "    return time.time()  # repro: noqa\n"
    )
    assert analyze(source) == []


def test_findings_sorted_and_fingerprint_stable_across_line_shift(tmp_path):
    source = "import time\ndef f():\n    return time.time()\n"
    shifted = "import time\n\n\ndef f():\n    return time.time()\n"
    first = analyze(source, root=tmp_path)
    second = analyze(shifted, root=tmp_path)
    assert first[0].line != second[0].line
    assert first[0].fingerprint == second[0].fingerprint


def test_rule_ids_are_unique_and_severities_valid():
    """One finding per violation: the driver instantiates every rule of
    the three packs, so an id may appear in only one of them."""
    rules = DETERMINISM_RULES + CONCURRENCY_RULES + HYGIENE_RULES
    ids = [rule.rule_id for rule in rules]
    assert len(ids) == len(set(ids)) == 10
    assert all(rule.severity in SEVERITIES for rule in rules)


# --------------------------------------------------------------- reporters


def test_text_reporter_mentions_location_and_counts():
    findings = analyze("import time\ndef f():\n    return time.time()\n")
    text = render_text(findings)
    assert "DET-WALLCLOCK" in text
    assert "error" in text
    assert "fixture.py:3" in text
    assert render_text([]) == "clean: no findings"


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
    assert "clean" in capsys.readouterr().out


def test_cli_lint_error_exits_one_with_text_report(tmp_path, capsys):
    bad = _write_bad_module(tmp_path)
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "DET-WALLCLOCK" in out
    assert "time.time" in out


def test_cli_lint_sarif_format(tmp_path, capsys):
    """What CI uploads: the same finding, as one SARIF result."""
    bad = _write_bad_module(tmp_path)
    assert main(["lint", str(bad), "--format", "sarif"]) == 1
    (run,) = json.loads(capsys.readouterr().out)["runs"]
    assert [r["ruleId"] for r in run["results"]] == ["DET-WALLCLOCK"]


def test_cli_lint_fails_on_warnings_too(tmp_path, capsys):
    """One mode: a warning-severity finding fails the run with no flag
    (tests/test_cli.py pins that the old mode flags no longer parse)."""
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


def test_lint_paths_walks_directories(tmp_path):
    _write_bad_module(tmp_path)
    findings = lint_paths([str(tmp_path)])
    assert [f.rule_id for f in findings] == ["DET-WALLCLOCK"]
