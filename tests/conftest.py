"""Suite-wide hypothesis profiles (``--hypothesis-profile NAME``) and
the one run-document oracle every sweep-level test judges by."""

import importlib
from pathlib import Path

import pytest
from hypothesis import settings

PERF = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"

#: CI's ``db`` job runs the storage-engine model and the encoder
#: identity oracle (tests/common/test_jsonutil.py) under this one.
settings.register_profile("ci", max_examples=2000, deadline=None)


@pytest.fixture(scope="session")
def runs_digest():
    """The benchmark oracle's own hash over the run documents
    (``benchmarks/perf/inspect_sample.py::runs_digest``)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERF))
        return importlib.import_module("inspect_sample").runs_digest
