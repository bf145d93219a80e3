"""Manifest parsing and validation: errors are front-loaded."""

import pytest

from repro.common.errors import ValidationError
from repro.pipeline import EXECUTION_DEFAULTS, Manifest, load_manifest
from repro.pipeline.manifest import apply_set_overrides, parse_document_text
from tests.helpers import parse_manifest_text

MINIMAL = """
pipeline: demo
stages:
  - name: a
    kind: python
    params: {target: "tests.pipeline.targets:emit"}
  - name: b
    kind: python
    inputs: [a]
    params: {target: "tests.pipeline.targets:add_inputs"}
"""


def test_parse_minimal_yaml():
    manifest = parse_manifest_text(MINIMAL)
    assert manifest.name == "demo"
    assert manifest.stage_names() == ["a", "b"]
    assert manifest.execution_order() == ["a", "b"]
    assert manifest.execution == EXECUTION_DEFAULTS


def test_parse_json_manifest(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(
        '{"pipeline": "j", "stages": [{"name": "only", "kind": '
        '"python", "params": {"target": "x:y"}}]}'
    )
    manifest = load_manifest(str(path))
    assert manifest.name == "j"
    assert manifest.source_path == str(path)


def test_fingerprint_is_stable_and_param_sensitive():
    first = parse_manifest_text(MINIMAL)
    second = parse_manifest_text(MINIMAL)
    assert first.fingerprint() == second.fingerprint()
    changed = parse_manifest_text(
        MINIMAL.replace("targets:emit", "targets:emit_attempt")
    )
    assert changed.fingerprint() != first.fingerprint()


def test_dependents_and_ancestors():
    manifest = parse_manifest_text(
        """
pipeline: diamond
stages:
  - {name: base, kind: python, params: {target: "x:y"}}
  - {name: left, kind: python, inputs: [base], params: {target: "x:y"}}
  - {name: right, kind: python, inputs: [base], params: {target: "x:y"}}
  - name: top
    kind: python
    inputs: [left, right]
    params: {target: "x:y"}
"""
    )
    assert manifest.dependents_of("base") == ["left", "right", "top"]
    assert manifest.dependents_of("left") == ["top"]
    assert manifest.ancestors_of("top") == ["base", "left", "right"]
    assert manifest.ancestors_of("base") == []


@pytest.mark.parametrize(
    "mutation, message",
    [
        ("pipeline: demo\nstages: []\n", "non-empty 'stages'"),
        (
            "pipeline: demo\nstages:\n"
            "  - {name: a, kind: nonsense}\n",
            "unknown kind",
        ),
        (
            "pipeline: demo\nstages:\n"
            "  - {name: a, kind: python}\n"
            "  - {name: a, kind: python}\n",
            "duplicate stage",
        ),
        (
            "pipeline: demo\nstages:\n"
            "  - {name: a, kind: python, inputs: [ghost]}\n",
            "undeclared",
        ),
        (
            "pipeline: demo\nstages:\n"
            "  - {name: a, kind: python, inputs: [b]}\n"
            "  - {name: b, kind: python, inputs: [a]}\n",
            "cycle",
        ),
        (
            "pipeline: demo\nstages:\n"
            "  - {name: a, kind: python, inputs: [a]}\n",
            "itself",
        ),
    ],
)
def test_rejected_manifests(mutation, message):
    with pytest.raises(ValidationError, match=message):
        parse_manifest_text(mutation)


def test_backtrack_target_must_be_ancestor_or_self():
    bad = """
pipeline: demo
stages:
  - {name: a, kind: python, params: {target: "x:y"}}
  - {name: sibling, kind: python, params: {target: "x:y"}}
  - name: b
    kind: python
    inputs: [a]
    params: {target: "x:y"}
    gates: [{kind: equals, path: value, value: 1}]
    on_fail: {backtrack: sibling}
"""
    with pytest.raises(ValidationError, match="ancestor"):
        parse_manifest_text(bad)
    good = bad.replace("backtrack: sibling", "backtrack: a")
    manifest = parse_manifest_text(good)
    assert manifest.stage("b").on_fail.backtrack == "a"
    assert manifest.stage("b").on_fail.max_backtracks == 1


def test_on_fail_requires_gates():
    with pytest.raises(ValidationError, match="no gates"):
        parse_manifest_text(
            """
pipeline: demo
stages:
  - name: a
    kind: python
    params: {target: "x:y"}
    on_fail: {backtrack: a}
"""
        )


def test_unknown_gate_kind_rejected():
    with pytest.raises(ValidationError, match="unknown gate kind"):
        parse_manifest_text(
            """
pipeline: demo
stages:
  - name: a
    kind: python
    params: {target: "x:y"}
    gates: [{kind: vibes}]
"""
        )


def test_execution_validation():
    with pytest.raises(ValidationError, match="unknown execution"):
        parse_manifest_text(
            "pipeline: demo\nexecution: {gpus: 4}\n"
            "stages: [{name: a, kind: python}]"
        )
    # ``backend`` is gone; the error points at the surviving knob.
    with pytest.raises(ValidationError, match="backend.*substrate"):
        parse_manifest_text(
            "pipeline: demo\nexecution: {backend: scheduler}\n"
            "stages: [{name: a, kind: python}]"
        )
    # Nor are admission coordinates (a sweep's scheduler app is
    # private): the error names the four settings there are.
    with pytest.raises(
        ValidationError,
        match=r"priority.*known: \['substrate', 'use_cache', "
        r"'use_checkpoints', 'workers'\]",
    ):
        parse_manifest_text(
            "pipeline: demo\nexecution: {priority: bulk}\n"
            "stages: [{name: a, kind: python}]"
        )
    with pytest.raises(ValidationError, match="execution.substrate"):
        parse_manifest_text(
            "pipeline: demo\nexecution: {substrate: fibers}\n"
            "stages: [{name: a, kind: python}]"
        )
    assert parse_manifest_text(
        "pipeline: demo\nexecution: {substrate: inline}\n"
        "stages: [{name: a, kind: python}]"
    ).execution["substrate"] == "inline"
    with pytest.raises(ValidationError, match="positive int"):
        parse_manifest_text(
            "pipeline: demo\nexecution: {workers: 0}\n"
            "stages: [{name: a, kind: python}]"
        )


def test_set_overrides_patch_params_and_change_fingerprint():
    document = parse_document_text(MINIMAL)
    patched = apply_set_overrides(
        document, ["a.value=41", 'b.extras=["x", "y"]']
    )
    manifest = Manifest.from_document(patched)
    assert manifest.stage("a").params["value"] == 41
    assert manifest.stage("b").params["extras"] == ["x", "y"]
    # The original document is untouched; fingerprints diverge.
    assert "value" not in Manifest.from_document(
        parse_document_text(MINIMAL)
    ).stage("a").params
    assert (
        manifest.fingerprint()
        != parse_manifest_text(MINIMAL).fingerprint()
    )


def test_set_overrides_reject_bad_shapes():
    document = parse_document_text(MINIMAL)
    with pytest.raises(ValidationError, match="STAGE.PARAM=VALUE"):
        apply_set_overrides(document, ["novalue"])
    with pytest.raises(ValidationError, match="unknown stage"):
        apply_set_overrides(document, ["ghost.x=1"])


def test_load_manifest_missing_file():
    with pytest.raises(ValidationError, match="cannot read"):
        load_manifest("/nonexistent/manifest.yaml")
