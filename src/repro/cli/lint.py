"""``repro lint``: the static analyzer, every rule and pass in one
mode."""

from __future__ import annotations

from repro.cli import error


def _lint_arguments(parser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to analyze (default: src/repro)",
    )


def _cmd_lint(args) -> int:
    """Run the analyzer and print one line per finding (its source line
    indented below it) and a tally; the exit code is the CI contract.

    0 — clean; 1 — findings (any rule: the pragma is the only way to
    accept one); 2 — usage error (bad paths).
    """
    import os

    from repro.analysis import lint_paths

    paths = args.paths or ["src/repro"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        error(f"no such path(s): {', '.join(missing)}")
        return 2
    findings = lint_paths(paths)
    for finding in findings:
        print(
            f"{finding.file}:{finding.line}:{finding.col}: "
            f"{finding.rule_id} {finding.message}"
        )
        if finding.snippet:
            print(f"    {finding.snippet}")
    print(
        f"found {len(findings)} finding(s)" if findings
        else "clean: no findings"
    )
    return 1 if findings else 0


VERBS = {"lint": (_lint_arguments, _cmd_lint)}
