"""Whole-program pass tests: injected violations must be flagged,
clean twins must not.

Each test writes a small fixture tree containing a ``repro`` directory
(so :func:`repro.analysis.engine.logical_module` assigns real dotted
names) and runs :func:`repro.analysis.lint_paths` over it.
"""

import ast
import json
from pathlib import Path

import pytest

import repro
from repro.analysis import lint_paths
from repro.analysis.reporters import render_sarif
from tests.analysis.helpers import write_tree as _write_tree


def _rules(findings):
    return sorted({finding.rule_id for finding in findings})


# ------------------------------------------------------------------ races


RACY_CLASS = """
    import threading

    class Racy:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def bump(self):
            with self._lock:
                self._count += 1

        def peek(self):
            return self._count
"""

CLEAN_CLASS = """
    import threading

    class Careful:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def bump(self):
            with self._lock:
                self._count += 1

        def peek(self):
            with self._lock:
                return self._count
"""


def test_inconsistent_lockset_is_flagged(tmp_path):
    paths = _write_tree(tmp_path, {"repro/expt/racy.py": RACY_CLASS})
    findings = lint_paths(paths)
    assert _rules(findings) == ["RACE-INCONSISTENT"]
    (finding,) = findings
    assert "self._count" in finding.message
    assert "peek" in finding.message


def test_consistent_lockset_is_clean(tmp_path):
    paths = _write_tree(tmp_path, {"repro/expt/ok.py": CLEAN_CLASS})
    assert lint_paths(paths) == []


def test_locked_helper_called_under_lock_is_clean(tmp_path):
    """The `_pop_locked` idiom: a private helper only invoked with the
    lock held inherits that entry lockset through the call graph."""
    paths = _write_tree(
        tmp_path,
        {
            "repro/expt/helper.py": """
                import threading

                class Queueish:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = []

                    def push(self, item):
                        with self._lock:
                            self._items.append(item)

                    def pop(self):
                        with self._lock:
                            return self._pop_locked()

                    def _pop_locked(self):
                        return self._items.pop()
            """
        },
    )
    assert lint_paths(paths) == []


def test_construction_only_helper_is_clean(tmp_path):
    """Unlocked writes in a private helper called only from __init__
    happen before the instance can be shared — not a race."""
    paths = _write_tree(
        tmp_path,
        {
            "repro/expt/loader.py": """
                import threading

                class Loader:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = {}
                        self._fill()

                    def _fill(self):
                        self._items["a"] = 1

                    def put(self, key, value):
                        with self._lock:
                            self._items[key] = value

                    def get(self, key):
                        with self._lock:
                            return self._items.get(key)
            """
        },
    )
    assert lint_paths(paths) == []


def test_race_noqa_suppresses(tmp_path):
    source = RACY_CLASS.replace(
        "return self._count",
        "return self._count  # repro: noqa[RACE-INCONSISTENT]",
    )
    paths = _write_tree(tmp_path, {"repro/expt/racy.py": source})
    assert lint_paths(paths) == []


# ------------------------------------------------------------ choke points


def test_sanctioned_chokepoint_is_clean(tmp_path):
    """Routing a clock read through the timeutil choke point is the
    sanctioned fix: under every rule and pass, such a tree is clean (its
    flagged twins, which read ``time.time()`` raw, are in
    ``test_lint_rules.py``)."""
    paths = _write_tree(
        tmp_path,
        {
            "repro/expt/ok_flow.py": """
                from repro.common.jsonutil import canonical_dumps
                from repro.common.timeutil import wall_now

                def fingerprint_payload():
                    return canonical_dumps({"at": wall_now()})
            """
        },
    )
    assert lint_paths(paths) == []


# --------------------------------------------------------------- layering


def test_upward_import_is_flagged(tmp_path):
    paths = _write_tree(
        tmp_path,
        {
            "repro/gpu/unit.py": "X = 1\n",
            "repro/gpu/bad.py": "import repro.sim.thing\n",
            "repro/sim/thing.py": "import repro.gpu.unit\n",
        },
    )
    findings = lint_paths(paths)
    assert _rules(findings) == ["ARCH-LAYER"]
    (finding,) = findings
    assert "repro.gpu.bad" in finding.message
    assert "repro.sim.thing" in finding.message


def test_type_checking_import_is_exempt(tmp_path):
    paths = _write_tree(
        tmp_path,
        {
            "repro/sim/thing.py": "X = 1\n",
            "repro/gpu/typed.py": """
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    import repro.sim.thing
            """,
        },
    )
    assert lint_paths(paths) == []


def test_module_cycle_is_flagged(tmp_path):
    paths = _write_tree(
        tmp_path,
        {
            "repro/db/alpha.py": "import repro.db.beta\n",
            "repro/db/beta.py": "import repro.db.alpha\n",
        },
    )
    findings = lint_paths(paths)
    assert _rules(findings) == ["ARCH-LAYER"]
    assert any("import cycle" in f.message for f in findings)


def test_deferred_import_does_not_cycle(tmp_path):
    """A function-scope import cannot deadlock module init — the lazy
    import idiom must stay legal."""
    paths = _write_tree(
        tmp_path,
        {
            "repro/db/alpha.py": "import repro.db.beta\n",
            "repro/db/beta.py": """
                def late():
                    import repro.db.alpha
                    return repro.db.alpha
            """,
        },
    )
    assert lint_paths(paths) == []


LAZY_PACKAGE = """
    import importlib

    _LAZY = {"f": "mod"}

    def __getattr__(name):
        module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
        return getattr(module, name)
"""


@pytest.mark.parametrize(
    "table, dead",
    [("_LAZY", []), ("_TABLE", [("DEAD-REACH", "repro.pkg.mod.f")])],
)
def test_lazy_table_is_an_import_edge(tmp_path, table, dead):
    """``from repro.pkg import f`` runs ``repro.pkg.mod`` only through
    the package's ``_LAZY`` table: the table keeps ``mod.f`` alive, and
    under any other name nothing imports ``mod``."""
    _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/__main__.py": "from repro.cli import main\nmain()\n",
            "src/repro/cli.py": """
                from repro.pkg import f

                def main():
                    return f()
            """,
            "src/repro/pkg/__init__.py": LAZY_PACKAGE.replace(
                "_LAZY", table
            ),
            "src/repro/pkg/mod.py": """
                def f():
                    return 1
            """,
        },
    )
    findings = lint_paths([str(tmp_path / "src" / "repro")])
    assert [
        (finding.rule_id, finding.message.split()[1]) for finding in findings
    ] == dead


def test_every_lazy_table_names_submodules_of_its_package():
    """The lint turns a ``_LAZY`` value into an edge to
    ``{package}.{value}`` whether or not that module exists, so a value
    naming anything else (another package's module, a dotted path, a
    typo) must fail here instead."""
    tables = 0
    for init in sorted(Path(repro.__file__).parent.rglob("__init__.py")):
        tree = ast.parse(init.read_text())
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and [
                getattr(target, "id", None) for target in stmt.targets
            ] == ["_LAZY"]:
                tables += 1
                for value in ast.literal_eval(stmt.value).values():
                    assert (init.parent / f"{value}.py").is_file() or (
                        init.parent / value / "__init__.py"
                    ).is_file(), (str(init), value)
    assert tables >= 6


# ------------------------------------------------------------------ sarif


def test_sarif_reporter_shape(tmp_path):
    paths = _write_tree(tmp_path, {"repro/expt/racy.py": RACY_CLASS})
    findings = lint_paths(paths)
    document = json.loads(render_sarif(findings))
    assert document["version"] == "2.1.0"
    (run,) = document["runs"]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    (result,) = run["results"]
    assert result["ruleId"] == "RACE-INCONSISTENT"
    assert result["level"] == "warning"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1 and region["startColumn"] >= 1
    assert result["partialFingerprints"][
        "reproFindingFingerprint/v1"
    ] == findings[0].fingerprint
    # Deterministic: same findings, byte-identical report — and a
    # second run over the same tree prints the same bytes.
    assert render_sarif(findings) == json.dumps(
        document, indent=2, sort_keys=True
    ) + "\n"
    assert render_sarif(lint_paths(paths)) == render_sarif(findings)
