"""Self-hosting gate: the analyzer must pass on our own tree.

One engine, one mode: every rule pack and every whole-program pass —
the determinism zones, lock discipline, races, taint, layering, and the
two size passes (``DEAD-REACH``, ``DEAD-PARAM``) — at zero unsuppressed
findings of any severity.  A future PR that sneaks a ``time.time()``
into the simulator, or leaves behind a function only its test calls,
fails here without failing a single behavioural test.
"""

import os
import re

from repro.analysis import lint_paths
from repro.analysis.engine import iter_python_files
from repro.cli import main

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
SRC = os.path.join(REPO_ROOT, "src", "repro")

#: The only ways to keep what the size passes would delete, each a
#: comment on the line above the pragma (``docs/analysis.md``).
REASONS = ("# paper surface:", "# worker target:", "# dev-tool entry:")
MAX_DEAD_PRAGMAS = 20


def test_whole_tree_has_zero_findings():
    findings = lint_paths([SRC])
    assert findings == [], "\n".join(
        f"{f.file}:{f.line} {f.rule_id} {f.message}" for f in findings
    )


def test_lint_cli_exit_code():
    """The CI contract end-to-end: `repro lint src/repro` exits 0."""
    assert main(["lint", SRC]) == 0


def test_dead_code_pragmas_are_few_and_each_gives_its_reason():
    """`# repro: noqa[DEAD-*]` is the only escape hatch of the size
    passes; it is rationed, and every use says which of the three
    allowed reasons applies."""
    pragma = re.compile(r"#\s*repro:\s*noqa\[DEAD-(REACH|PARAM)\]")
    uses = []
    for path in iter_python_files([SRC]):
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        for index, line in enumerate(lines):
            if pragma.search(line) and "``" not in line:
                uses.append((path, index + 1, lines[index - 1].strip()))
    assert 0 < len(uses) <= MAX_DEAD_PRAGMAS, uses
    for path, lineno, above in uses:
        assert above.startswith(REASONS), (
            f"{path}:{lineno}: the line above a DEAD-* pragma must give "
            f"its reason, one of {REASONS}"
        )
