"""One ``"package.module:attr"`` resolver, three callers: a process-pool
envelope, a manifest's python stage and a callable gate each report a
target they cannot resolve the same way — a ValidationError that names
it — in their own failure idiom (a failed job, a failed stage, a failed
verdict)."""

import pytest

from repro.art import ArtifactDB
from repro.common.errors import ValidationError
from repro.common.targets import resolve_target
from repro.pipeline import PipelineJournal, run_pipeline
from repro.pipeline.gates import evaluate_gate
from repro.scheduler import JobEnvelope, ProcessPool, WorkerJobError

from tests.helpers import parse_manifest_text, result_of

BAD_TARGETS = {
    "no-attribute-part": "os:",
    "unimportable-module": "no_such_package_anywhere.module:function",
    "missing-attribute": "tests.pipeline.targets:missing",
    "missing-nested-attribute": "os:path.no_such_function",
}


def through_the_pool(target):
    with ProcessPool(workers=1) as pool:
        with pytest.raises(WorkerJobError) as failure:
            result_of(pool.submit(JobEnvelope(target=target)), 60)
    return str(failure.value)


def through_a_python_stage(target):
    db = ArtifactDB()
    result = run_pipeline(
        db,
        parse_manifest_text(
            "pipeline: bad-target\nstages:\n  - name: only\n"
            f'    kind: python\n    params: {{target: "{target}"}}\n'
        ),
    )
    assert result["status"] == "failed"
    (doc,) = PipelineJournal(db).stages_of(result["pipeline_id"])
    return doc["error"]


def through_a_callable_gate(target):
    verdict = evaluate_gate(
        {"kind": "callable", "target": target}, {}, stage="s", attempt=1
    )
    assert not verdict["ok"]
    return verdict["detail"]


@pytest.mark.parametrize(
    "caller",
    [through_the_pool, through_a_python_stage, through_a_callable_gate],
)
@pytest.mark.parametrize("target", BAD_TARGETS.values(), ids=list(BAD_TARGETS))
def test_unresolvable_target_is_named_by_every_caller(caller, target):
    report = caller(target)
    assert "ValidationError" in report or "crashed" in report
    assert repr(target) in report


def test_resolve_target_walks_dotted_qualnames():
    import os.path

    assert resolve_target("os:path.join") is os.path.join
    with pytest.raises(ValidationError, match="'package.module:attr'"):
        resolve_target("no_colon")
