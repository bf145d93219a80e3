"""Reproduction manifests — the declarative half of ``repro reproduce``.

A manifest describes a paper's reproduction as a DAG of *stages*
(fetch/build artifacts → boot sweep → analyze → render) in a small YAML
or JSON document.  :func:`load_manifest` parses and validates it into a
frozen :class:`Manifest`; the executor (:mod:`repro.pipeline.executor`)
never sees raw dicts.

Design rules:

- **Stage wiring is explicit.**  ``inputs`` lists upstream stage names;
  the resulting graph must be a DAG (checked here with the same
  deterministic topological sort the artifact workflow uses).
- **Validation is front-loaded.**  Unknown stage kinds, unknown gate
  kinds, dangling inputs, duplicate names, and backtrack targets that
  are not ancestors are all manifest errors — the pipeline refuses to
  start, rather than failing three stages in.
- **YAML is optional.**  PyYAML is used when importable; a JSON manifest
  (``.json``) always works, so the pipeline layer has zero hard
  third-party dependencies.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ValidationError
from repro.common.hashing import sha256_text
from repro.common.jsonutil import canonical_dumps, loads
from repro.art.tasks import SUBSTRATES
from repro.art.workflow import topological_order
from repro.pipeline.gates import validate_gate_spec

#: Bumped whenever the canonical manifest serialization changes shape,
#: so old stage fingerprints can never silently alias new ones.
MANIFEST_SCHEMA_VERSION = 1

#: Stage kinds the executor knows how to run (implementations live in
#: :mod:`repro.pipeline.stages`).
KNOWN_STAGE_KINDS = ("artifacts", "sweep", "analyze", "render", "python")

#: Execution settings a manifest may override (the keywords and
#: defaults of ``Experiment.launch``).
EXECUTION_DEFAULTS: Dict[str, object] = {
    "workers": 4,
    "substrate": "threads",
    "use_cache": True,
    "use_checkpoints": False,
}


@dataclass(frozen=True)
class OnFail:
    """What a stage does when one of its gates fails."""

    backtrack: str
    max_backtracks: int = 1

    def to_document(self) -> Dict[str, object]:
        return {
            "backtrack": self.backtrack,
            "max_backtracks": self.max_backtracks,
        }


@dataclass(frozen=True)
class StageSpec:
    """One validated stage of a manifest."""

    name: str
    kind: str
    inputs: Tuple[str, ...] = ()
    params: Mapping[str, Any] = field(default_factory=dict)
    gates: Tuple[Mapping[str, Any], ...] = ()
    on_fail: Optional[OnFail] = None

    def canonical_document(self) -> Dict[str, object]:
        """The dict that feeds the stage fingerprint: everything that,
        if edited, must invalidate the stage's cached outputs."""
        doc: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "inputs": sorted(self.inputs),
            "params": dict(self.params),
            "gates": [dict(gate) for gate in self.gates],
        }
        if self.on_fail is not None:
            doc["on_fail"] = self.on_fail.to_document()
        return doc


@dataclass(frozen=True)
class Manifest:
    """A validated reproduction manifest."""

    name: str
    description: str
    execution: Mapping[str, Any]
    stages: Tuple[StageSpec, ...]
    source_path: Optional[str] = None

    # ------------------------------------------------------------ access

    def stage(self, name: str) -> StageSpec:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise ValidationError(
            f"manifest {self.name!r} has no stage {name!r}"
        )

    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    def execution_order(self) -> List[str]:
        """Deterministic topological order of the stage DAG."""
        edges = [
            (source, stage.name)
            for stage in self.stages
            for source in stage.inputs
        ]
        return topological_order(self.stage_names(), edges)

    def dependents_of(self, name: str) -> List[str]:
        """Every stage downstream of ``name`` (transitively), in
        execution order — exactly the set a change to ``name``
        invalidates."""
        self.stage(name)
        downstream = {name}
        out = []
        for candidate in self.execution_order():
            stage = self.stage(candidate)
            if candidate != name and any(
                source in downstream for source in stage.inputs
            ):
                downstream.add(candidate)
                out.append(candidate)
        return out

    def ancestors_of(self, name: str) -> List[str]:
        """Every stage upstream of ``name`` (transitively)."""
        upstream = set()
        frontier = list(self.stage(name).inputs)
        while frontier:
            current = frontier.pop()
            if current in upstream:
                continue
            upstream.add(current)
            frontier.extend(self.stage(current).inputs)
        return [s for s in self.execution_order() if s in upstream]

    # ---------------------------------------------------------- identity

    def canonical_document(self) -> Dict[str, object]:
        return {
            "schema": MANIFEST_SCHEMA_VERSION,
            "name": self.name,
            "execution": dict(self.execution),
            "stages": [
                stage.canonical_document() for stage in self.stages
            ],
        }

    def fingerprint(self) -> str:
        """SHA-256 content address of the manifest itself."""
        return sha256_text(canonical_dumps(self.canonical_document()))

    # ------------------------------------------------------ construction

    @classmethod
    def from_document(
        cls,
        document: Mapping[str, Any],
        source_path: Optional[str] = None,
    ) -> "Manifest":
        if not isinstance(document, Mapping):
            raise ValidationError(
                "manifest must be a mapping at the top level"
            )
        name = document.get("pipeline") or document.get("name")
        if not name or not isinstance(name, str):
            raise ValidationError(
                "manifest needs a 'pipeline: <name>' entry"
            )
        execution = _validate_execution(document.get("execution") or {})
        raw_stages = document.get("stages")
        if not isinstance(raw_stages, (list, tuple)) or not raw_stages:
            raise ValidationError(
                f"manifest {name!r} needs a non-empty 'stages' list"
            )
        stages = tuple(
            _validate_stage(raw, index)
            for index, raw in enumerate(raw_stages)
        )
        manifest = cls(
            name=name,
            description=str(document.get("description") or ""),
            execution=execution,
            stages=stages,
            source_path=source_path,
        )
        _validate_graph(manifest)
        return manifest


def _validate_execution(raw: Mapping[str, Any]) -> Dict[str, Any]:
    if not isinstance(raw, Mapping):
        raise ValidationError("'execution' must be a mapping")
    unknown = set(raw) - set(EXECUTION_DEFAULTS)
    if unknown:
        raise ValidationError(
            f"unknown execution settings: {sorted(unknown)}; "
            f"known: {sorted(EXECUTION_DEFAULTS)}"
        )
    settings = dict(EXECUTION_DEFAULTS)
    settings.update(raw)
    if settings["substrate"] not in SUBSTRATES:
        raise ValidationError(
            f"execution.substrate must be one of {SUBSTRATES} "
            f"(got {settings['substrate']!r})"
        )
    workers = settings["workers"]
    if not isinstance(workers, int) or workers < 1:
        raise ValidationError(
            f"execution.workers must be a positive int (got {workers!r})"
        )
    for flag in ("use_cache", "use_checkpoints"):
        if not isinstance(settings[flag], bool):
            raise ValidationError(f"execution.{flag} must be a boolean")
    return settings


def _validate_stage(raw: Mapping[str, Any], index: int) -> StageSpec:
    if not isinstance(raw, Mapping):
        raise ValidationError(f"stage #{index} must be a mapping")
    name = raw.get("name")
    if not name or not isinstance(name, str):
        raise ValidationError(f"stage #{index} needs a 'name'")
    kind = raw.get("kind")
    if kind not in KNOWN_STAGE_KINDS:
        raise ValidationError(
            f"stage {name!r} has unknown kind {kind!r}; "
            f"one of {KNOWN_STAGE_KINDS}"
        )
    unknown = set(raw) - {
        "name", "kind", "inputs", "params", "gates", "on_fail",
    }
    if unknown:
        raise ValidationError(
            f"stage {name!r} has unknown keys: {sorted(unknown)}"
        )
    inputs = raw.get("inputs") or []
    if not isinstance(inputs, (list, tuple)) or any(
        not isinstance(item, str) for item in inputs
    ):
        raise ValidationError(
            f"stage {name!r}: 'inputs' must be a list of stage names"
        )
    if len(set(inputs)) != len(inputs):
        raise ValidationError(
            f"stage {name!r} lists duplicate inputs: {sorted(inputs)}"
        )
    params = raw.get("params") or {}
    if not isinstance(params, Mapping):
        raise ValidationError(f"stage {name!r}: 'params' must be a mapping")
    gates = raw.get("gates") or []
    if not isinstance(gates, (list, tuple)):
        raise ValidationError(f"stage {name!r}: 'gates' must be a list")
    for gate in gates:
        validate_gate_spec(gate, stage=name)
    on_fail = None
    raw_on_fail = raw.get("on_fail")
    if raw_on_fail is not None:
        if (
            not isinstance(raw_on_fail, Mapping)
            or not isinstance(raw_on_fail.get("backtrack"), str)
        ):
            raise ValidationError(
                f"stage {name!r}: 'on_fail' needs a "
                "'backtrack: <stage name>' entry"
            )
        unknown = set(raw_on_fail) - {"backtrack", "max_backtracks"}
        if unknown:
            raise ValidationError(
                f"stage {name!r}: unknown on_fail keys: {sorted(unknown)}"
            )
        max_backtracks = raw_on_fail.get("max_backtracks", 1)
        if not isinstance(max_backtracks, int) or max_backtracks < 0:
            raise ValidationError(
                f"stage {name!r}: max_backtracks must be a "
                f"non-negative int (got {max_backtracks!r})"
            )
        on_fail = OnFail(
            backtrack=raw_on_fail["backtrack"],
            max_backtracks=max_backtracks,
        )
    return StageSpec(
        name=name,
        kind=kind,
        inputs=tuple(inputs),
        params=dict(params),
        gates=tuple(dict(gate) for gate in gates),
        on_fail=on_fail,
    )


def _validate_graph(manifest: Manifest) -> None:
    names = manifest.stage_names()
    if len(set(names)) != len(names):
        duplicates = sorted(
            name for name in set(names) if names.count(name) > 1
        )
        raise ValidationError(
            f"manifest {manifest.name!r} declares duplicate stage "
            f"names: {duplicates}"
        )
    known = set(names)
    for stage in manifest.stages:
        for source in stage.inputs:
            if source not in known:
                raise ValidationError(
                    f"stage {stage.name!r} depends on undeclared "
                    f"stage {source!r}"
                )
            if source == stage.name:
                raise ValidationError(
                    f"stage {stage.name!r} cannot depend on itself"
                )
    # A cycle raises ValidationError inside topological_order.
    manifest.execution_order()
    for stage in manifest.stages:
        if stage.on_fail is None:
            continue
        target = stage.on_fail.backtrack
        if target not in known:
            raise ValidationError(
                f"stage {stage.name!r} backtracks to undeclared "
                f"stage {target!r}"
            )
        if target != stage.name and target not in manifest.ancestors_of(
            stage.name
        ):
            raise ValidationError(
                f"stage {stage.name!r} can only backtrack to itself or "
                f"an ancestor; {target!r} is neither"
            )
        if stage.gates == ():
            raise ValidationError(
                f"stage {stage.name!r} declares on_fail but no gates"
            )


# ------------------------------------------------------------------ load


def parse_document_text(text: str) -> Any:
    """Parse manifest text to a raw document — YAML when available,
    JSON always (so the pipeline layer has no hard third-party deps)."""
    document = None
    yaml_error = None
    try:
        import yaml
    except ImportError:
        yaml = None
    if yaml is not None:
        try:
            document = yaml.safe_load(text)
        except yaml.YAMLError as error:
            yaml_error = error
    if document is None and yaml_error is None:
        # No YAML parser (or empty document): fall back to JSON.
        try:
            document = loads(text)
        except ValueError as error:
            raise ValidationError(
                f"manifest is neither valid YAML nor JSON: {error}"
            ) from error
    if yaml_error is not None:
        raise ValidationError(
            f"manifest is not valid YAML: {yaml_error}"
        ) from yaml_error
    return document


def apply_set_overrides(
    document: Any, assignments: Sequence[str]
) -> Any:
    """Apply CLI ``--set STAGE.PARAM=VALUE`` assignments to a raw
    manifest document (before validation).

    Values parse as JSON when possible (``--set sweep.num_cpus=[1,2]``)
    and fall back to plain strings.  Overriding a stage's params changes
    its canonical document, hence its fingerprint — so a ``--set`` is
    exactly an upstream-artifact change from the cache's point of view:
    the stage and its dependents re-execute, nothing else does.
    """
    if not isinstance(document, Mapping):
        raise ValidationError("manifest must be a mapping at the top level")
    patched = copy.deepcopy(dict(document))
    for text in assignments:
        target, separator, raw_value = str(text).partition("=")
        stage_name, dot, param = target.partition(".")
        if not separator or not dot or not stage_name or not param:
            raise ValidationError(
                f"--set expects STAGE.PARAM=VALUE (got {text!r})"
            )
        try:
            value = loads(raw_value)
        except ValueError:
            value = raw_value
        for raw_stage in patched.get("stages") or []:
            if (
                isinstance(raw_stage, dict)
                and raw_stage.get("name") == stage_name
            ):
                params = dict(raw_stage.get("params") or {})
                params[param] = value
                raw_stage["params"] = params
                break
        else:
            raise ValidationError(
                f"--set {text!r} names unknown stage {stage_name!r}"
            )
    return patched


def load_manifest(
    path: str, overrides: Sequence[str] = ()
) -> Manifest:
    """Read, parse, and validate a manifest file.

    ``overrides`` are CLI ``--set STAGE.PARAM=VALUE`` assignments,
    applied to the raw document before validation.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise ValidationError(
            f"cannot read manifest {path!r}: {error}"
        ) from error
    document = parse_document_text(text)
    if overrides:
        document = apply_set_overrides(document, overrides)
    return Manifest.from_document(document, source_path=path)
