"""Analysis: result post-processing and the self-hosted lint framework.

Two halves share this package:

- **Result analysis** — the Jupyter/Matplotlib stage of the paper's
  workflow: :mod:`queries` pulls run summaries out of the database into
  flat records, :mod:`series` reshapes them (group-by, speedups,
  normalization), and :mod:`charts` renders ASCII bar charts and the
  Fig 8 status grid.  This half is what the package exports.
- **Static analysis of the codebase itself** — the
  determinism/concurrency/hygiene rule packs (:mod:`rules_determinism`,
  :mod:`rules_concurrency`, :mod:`rules_hygiene`) on the :mod:`engine`
  and the four whole-program passes in :mod:`dataflow`.  This half is a
  *dev-tool layer*: it reads source text and imports nothing of the
  package it checks, no runtime subsystem (scheduler, sim, art, db)
  imports it, and it is imported only when :func:`lint_paths` runs —
  ``repro lint`` and CI are its consumers.
"""

from repro.analysis.queries import run_records, group_by, pivot
from repro.analysis.series import (
    Series,
    speedup_series,
    difference_series,
    normalize_to,
)
from repro.analysis.charts import bar_chart, status_grid
from repro.analysis.report import experiment_report
from repro.analysis.validation import (
    compare_stats,
    diagnose_configs,
    within_tolerance,
)


def lint_paths(paths):
    """Run every lint rule and whole-program pass over files/directories;
    sorted findings (see :func:`repro.analysis.dataflow.lint_paths`)."""
    from repro.analysis.dataflow import lint_paths as lint

    return lint(paths)


__all__ = [
    "lint_paths",
    "experiment_report",
    "compare_stats",
    "diagnose_configs",
    "within_tolerance",
    "run_records",
    "group_by",
    "pivot",
    "Series",
    "speedup_series",
    "difference_series",
    "normalize_to",
    "bar_chart",
    "status_grid",
]
