"""The CI workflow is a caller no analysis sees: keep it honest.

``repro lint`` proves that everything in ``src/`` has a caller in the
repository, but a workflow step is neither linted nor executed by the
tier-1 suite — the ``pipeline`` job's inline script called a
``FileStore`` method deleted three PRs earlier and nothing could say
so.  So a workflow step may run the CLI, the test suite or the perf
harness, and parse their output; it may not be a program of its own.
"""

import os
import re

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
