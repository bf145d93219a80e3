"""Fixture plumbing shared by the lint suites: every fixture reaches the
analyzer the way a user's file does, through ``lint_paths``."""

import os
import tempfile
import textwrap

from repro.analysis import lint_paths


def write_tree(root, files):
    """Write ``{relative path: source}`` under ``root``; the lint paths."""
    for relpath, source in files.items():
        path = os.path.join(str(root), relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(textwrap.dedent(source))
    return [str(root)]


def lint_source(source, path="src/repro/sim/fixture.py", root=None):
    """Lint one source string as if it lived at ``path`` (the directory
    layout is what assigns the logical module, hence the zones)."""
    if root is None:
        with tempfile.TemporaryDirectory() as scratch:
            return lint_source(source, path, scratch)
    write_tree(root, {path: source})
    return lint_paths([os.path.join(str(root), path)])
