"""The chaos-point registry: declared == fired, and every point is
injected by some test.

The table in ``repro/chaos/__init__.py`` is the one list of failure
points.  It is checked against the source (an AST scan for
``chaos.fire(`` first arguments) and against the test tree (every
declared point is the first argument of a ``FaultRule(`` somewhere), so
a new point cannot ship undeclared and a declared point cannot go
unexercised.
"""

import ast
import pathlib
import re

import pytest

import repro
from repro import chaos
from repro.art import ArtifactDB
from repro.art.cache import MemoStore
from repro.chaos import FaultRule
from repro.pipeline import StageCache  # noqa: F401  (the third subclass)

from tests.art.test_launch_share import make_experiment

SRC = pathlib.Path(repro.__file__).parent
TESTS = pathlib.Path(__file__).parent.parent

#: The one computed point name: ``f"{<store>.noun}.get"``.
MEMO_NOUNS = sorted(cls.noun for cls in MemoStore.__subclasses__())


@pytest.fixture(autouse=True)
def clean_injector():
    yield
    chaos.uninstall()


def declared_points():
    return set(re.findall(r"^``([a-z_.]+)``\s", chaos.__doc__, re.M))


def point_arguments(root: pathlib.Path, callee: str):
    """``(where, names)`` for the first argument of every call spelled
    ``callee(...)`` under ``root``: the point names it denotes — empty
    for anything but a string literal or the one computed spelling."""
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Call)
                and node.args
                and ast.unparse(node.func) == callee
            ):
                continue
            first = node.args[0]
            names = set()
            if isinstance(first, ast.Constant):
                names = {first.value}
            elif re.fullmatch(
                r"""f['"]\{\w+\.noun\}\.get['"]""", ast.unparse(first)
            ):
                names = {f"{noun}.get" for noun in MEMO_NOUNS}
            yield f"{path}:{node.lineno}", names


def test_declared_points_are_exactly_the_fired_points():
    assert MEMO_NOUNS == ["checkpoint", "runcache", "stagecache"]
    fired = set()
    for where, names in point_arguments(SRC, "chaos.fire"):
        assert names, f"{where}: chaos.fire() point is not a literal"
        fired |= names
    assert fired == declared_points()
    assert len(fired) == 15


def test_every_declared_point_is_injected_by_some_test():
    injected = set()
    for callee in ("FaultRule", "chaos.FaultRule"):
        for _, names in point_arguments(TESTS, callee):
            injected |= names
    assert declared_points() - injected == set()


def test_submit_fault_fails_one_run_and_resume_finishes_it():
    """``procpool.submit``: the fault surfaces in the submitting job,
    which ends FAILED with the injected error; its neighbours are
    untouched, nothing hangs, and a retrying resume completes it."""
    db = ArtifactDB()
    experiment = make_experiment(
        db, apps=("ferret", "vips", "dedup"), cpus=(1,)
    )
    runs = experiment.create_runs()
    rules = [FaultRule("procpool.submit", times=1, error="pipe refused")]
    with chaos.injected(seed=37, rules=rules) as injector:
        experiment.launch(workers=2, substrate="processes")
    ((_, stats),) = injector.report().items()
    assert stats == {"seen": 3, "fired": 1}
    docs = [db.get_run(run.run_id) for run in runs]
    assert sorted(doc["status"] for doc in docs) == [
        "done", "done", "failed",
    ]
    (failed,) = [doc for doc in docs if doc["status"] == "failed"]
    assert "pipe refused" in failed["results"]["error"]

    summaries = experiment.resume(
        workers=2, substrate="processes", retry_failures=True
    )
    assert all(summary["success"] for summary in summaries)
    assert [db.get_run(run.run_id)["status"] for run in runs] == [
        "done"
    ] * 3
