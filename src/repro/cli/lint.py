"""``repro lint``: the static analyzer, every rule and pass in one
mode."""

from __future__ import annotations

from repro.cli import error


def _lint_arguments(parser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format", default="text", choices=("text", "sarif"),
        help="report format (sarif for code-scanning UIs)",
    )


def _cmd_lint(args) -> int:
    """Run the analyzer; the exit code is the CI contract.

    0 — clean; 1 — findings (any rule, any severity: the pragma is the
    only way to accept one); 2 — usage error (bad paths).
    """
    import os

    from repro.analysis import lint_paths
    from repro.analysis.reporters import render_sarif, render_text

    paths = args.paths or ["src/repro"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        error(f"no such path(s): {', '.join(missing)}")
        return 2
    findings = lint_paths(paths)
    render = render_sarif if args.format == "sarif" else render_text
    output = render(findings)
    print(output, end="" if output.endswith("\n") else "\n")
    return 1 if findings else 0


VERBS = {"lint": (_lint_arguments, _cmd_lint)}
