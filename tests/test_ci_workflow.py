"""The CI workflow is a caller no analysis sees: keep it honest.

``repro lint`` proves that everything in ``src/`` has a caller in the
repository, but a workflow step is neither linted nor executed by the
tier-1 suite — the ``pipeline`` job's inline script called a
``FileStore`` method deleted three PRs earlier and nothing could say
so.  So a workflow step may run the CLI, the test suite or the perf
harness, and parse their output; it may not be a program of its own.
"""

import os
import pathlib
import re
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")


def _workflow_text():
    with open(WORKFLOW, encoding="utf-8") as handle:
        return handle.read()


def test_no_workflow_step_imports_repro_in_inline_python():
    offenders = [
        line.strip()
        for line in _workflow_text().splitlines()
        if re.match(r"\s*(from|import)\s+repro\b", line)
    ]
    assert offenders == [], (
        "inline workflow Python that imports repro is untested, unlinted "
        f"code; make it a tier-1 test instead: {offenders}"
    )


def test_every_path_a_workflow_step_names_exists():
    named = set(
        re.findall(
            r"(?<![\w/.])((?:tests|benchmarks|examples|src)/[\w/.-]*\w)",
            _workflow_text(),
        )
    )
    assert named, "the workflow runs nothing?"
    missing = sorted(
        path
        for path in named
        if not os.path.exists(os.path.join(REPO_ROOT, path))
    )
    assert missing == []


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="needs sys.stdlib_module_names"
)
def test_every_job_installs_what_its_test_files_import():
    """A clean runner has only what the job's ``pip install`` names:
    ``tests/test_properties.py`` imports hypothesis at module level, so
    a job that installed pytest alone died collecting it."""
    root = pathlib.Path(REPO_ROOT)
    ours = set(sys.stdlib_module_names) | {"repro", "tests", "benchmarks"}
    jobs = re.split(
        r"^  ([\w-]+):\n", _workflow_text().split("\njobs:\n")[1], flags=re.M
    )
    assert len(jobs) > 2 * 7
    for name, text in zip(jobs[1::2], jobs[2::2]):
        if "pytest" not in text:
            continue
        installed = " ".join(re.findall(r"pip install (.+)", text)).split()
        # A pytest step that names no path runs pyproject's testpaths.
        targets = re.findall(r"(?<![\w/.])(tests/[\w/.-]*\w)", text) or [
            "tests"
        ]
        files = set()
        for path in (root / target for target in targets):
            files |= set(path.rglob("*.py")) if path.is_dir() else {path}
            # pytest also imports each enclosing directory's conftest.
            files |= {
                folder / "conftest.py"
                for folder in path.parents
                if root in folder.parents
            }
        imported = {
            module
            for path in files
            if path.is_file()
            for module in re.findall(
                r"^(?:from|import) (\w+)", path.read_text(), flags=re.M
            )
        }
        assert imported - ours <= set(installed), f"job {name!r}"
