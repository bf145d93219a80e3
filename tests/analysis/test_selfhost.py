"""Self-hosting gate: the analyzer must pass on our own tree.

One engine, one mode: every rule pack and every whole-program pass —
the choke-point contract, lock discipline, races, layering, and the two
size passes (``DEAD-REACH``, ``DEAD-PARAM``) — at zero unsuppressed
findings of any severity.  A future PR that sneaks a raw ``time.time()``
into any module but the ``timeutil`` choke point, or leaves behind a
function only its test calls, fails here without failing a single
behavioural test.  The catalog in ``docs/analysis.md`` is held to the
same standard: it lists exactly the rule ids the code can emit.
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
CATALOG = os.path.join(REPO_ROOT, "docs", "analysis.md")

#: The only ways to keep what the size passes would delete, each a
#: comment on the line above the pragma (``docs/analysis.md``).
REASONS = ("# paper surface:", "# dev-tool entry:")
MAX_DEAD_PRAGMAS = 5

#: A rule id where a rule class or a pass declares it, and where the
#: catalog gives it an entry (a ``- **ID**`` bullet or a ``### `ID```
#: heading).  ``PARSE`` — a file that does not parse — is not a rule.
ASSIGNED_ID = re.compile(
    r'^\s*(?:rule_id|RULE_ID) = "([A-Z]+(?:-[A-Z]+)+)"$', re.M
)
CATALOGUED_ID = re.compile(r"^(?:- \*\*|### `)([A-Z]+(?:-[A-Z]+)+)\b", re.M)


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
    passes; it is rationed, and every use says which of the two
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


def test_rule_catalog_matches_the_code():
    """Set equality, like the chaos-point registry: every rule id a rule
    class (``rule_id = "..."``) or a pass (``RULE_ID = "..."``) can emit
    has a ``**ID**`` / ``### `ID` `` entry in ``docs/analysis.md``, and
    every id catalogued there still exists in the code."""
    in_code = set()
    for path in iter_python_files([os.path.join(SRC, "analysis")]):
        with open(path, encoding="utf-8") as handle:
            in_code.update(ASSIGNED_ID.findall(handle.read()))
    with open(CATALOG, encoding="utf-8") as handle:
        catalog = handle.read()
    documented = set(CATALOGUED_ID.findall(catalog))
    assert len(in_code) == 14
    assert documented == in_code
