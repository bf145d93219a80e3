"""Analysis: result post-processing and the self-hosted lint framework.

Two halves share this package:

- **Result analysis** — the Jupyter/Matplotlib stage of the paper's
  workflow: :mod:`queries` pulls run summaries out of the database into
  flat records, :mod:`series` reshapes them (group-by, speedups,
  normalization), and :mod:`charts` renders ASCII bar charts and the
  Fig 8 status grid.  This half is what the package exports.
- **Static analysis of the codebase itself** — the determinism and
  hygiene rule packs (:mod:`rules_determinism`, :mod:`rules_hygiene`)
  on the :mod:`engine` and the three whole-program passes in
  :mod:`dataflow`.  This half is a
  *dev-tool layer*: it reads source text and imports nothing of the
  package it checks, no runtime subsystem (scheduler, sim, art, db)
  imports it, and it is imported only when ``lint_paths`` is first
  used — ``repro lint`` and CI are its consumers.

Every export is lazy (the submodule ``_LAZY`` names): ``from
repro.analysis import status_grid`` loads :mod:`charts` and
:mod:`series` and nothing that reads the database.
"""

import importlib

#: Lazily imported name -> the submodule defining it.
_LAZY = {
    "lint_paths": "dataflow",
    "experiment_report": "report",
    "compare_stats": "validation",
    "diagnose_configs": "validation",
    "within_tolerance": "validation",
    "run_records": "queries",
    "group_by": "queries",
    "pivot": "queries",
    "Series": "series",
    "speedup_series": "series",
    "difference_series": "series",
    "normalize_to": "series",
    "bar_chart": "charts",
    "status_grid": "charts",
}

__all__ = list(_LAZY)


def __getattr__(name: str):
    if name in _LAZY:
        module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
        # Cached: the next lookup is a plain module attribute.
        value = globals()[name] = getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
