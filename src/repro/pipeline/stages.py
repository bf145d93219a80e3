"""Stage implementations — the executable half of a manifest.

Each stage kind is a function from a :class:`StageContext` to a plain
outputs dict.  Outputs must be JSON-serializable: the executor content-
addresses them into the FileStore, and their digest feeds every
dependent stage's fingerprint — so "what this stage produced" and "what
invalidates my dependents" are the same value by construction.

Kinds:

- ``artifacts`` — register the reproduction's artifact stack (simulator
  repo + binary, resources repo, disk image, kernels); outputs the
  artifact ids and content hashes.
- ``sweep`` — build an :class:`Experiment` cross product over the
  registered stacks (or, with ``study: parsec | gpu``, that paper
  study's builder) and launch it through the scheduler; outputs the
  experiment id, run ids, and run status counts.
- ``analyze`` — count the sweep's run outcomes by parameter axes.
- ``render`` — render the analysis as a text report, content-addressed
  into the FileStore.
- ``python`` — call a dotted-path function with the context (the escape
  hatch custom reproductions and the test-suite use).

``artifacts`` and ``sweep`` import the artifact layer, guest builds and
the simulator in their bodies: those run only on a stage-cache miss, so
a reproduction whose stages are all cached loads none of them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.common.errors import ValidationError
from repro.common.records import Record
from repro.common.targets import resolve_target
from repro.art.db import ArtifactDB
from repro.pipeline.manifest import StageSpec

#: Sweep axis parameter → run parameter it sweeps.
SWEEP_AXES = {
    "cpu_types": "cpu_type",
    "num_cpus": "num_cpus",
    "memory_systems": "memory_system",
    "boot_types": "boot_type",
}


class StageContext(Record):
    """Everything a stage implementation may see."""

    _fields = (
        "db", "pipeline_id", "pipeline_name", "stage", "inputs", "execution",
    )

    def __init__(
        self, db: ArtifactDB, pipeline_id: str, pipeline_name: str,
        stage: StageSpec, inputs: Optional[Dict[str, Dict[str, Any]]] = None,
        execution: Optional[Dict[str, Any]] = None,
    ):
        vars(self).update(
            db=db, pipeline_id=pipeline_id, pipeline_name=pipeline_name,
            stage=stage, inputs={} if inputs is None else inputs,
            execution={} if execution is None else execution,
        )

    @property
    def params(self) -> Mapping[str, Any]:
        return self.stage.params

    def source(self, param: str, key: str) -> Dict[str, Any]:
        """The upstream outputs a stage consumes: those of the input
        its ``param`` names, else of the one input providing ``key``.

        Stages with one obvious upstream don't need explicit source
        params; a param naming a stage that is not an input, or
        ambiguity (zero or several candidates), is a manifest wiring
        error, reported as such.
        """
        named = self.params.get(param)
        if named is not None:
            if named not in self.inputs:
                raise ValidationError(
                    f"stage {self.stage.name!r}: {param}={named!r} is "
                    f"not among its inputs {sorted(self.inputs)}"
                )
            return self.inputs[named]
        candidates = [
            name
            for name, outputs in self.inputs.items()
            if isinstance(outputs, Mapping) and key in outputs
        ]
        if len(candidates) != 1:
            raise ValidationError(
                f"stage {self.stage.name!r} needs exactly one input "
                f"providing {key!r}; found {sorted(candidates)}"
            )
        return self.inputs[candidates[0]]


def stage_artifacts(ctx: StageContext) -> Dict[str, Any]:
    """Register the reproduction's artifact stack (the paper's Fig 1)
    through the Fig 8 builder's registration half; a parameter the
    manifest leaves out takes the builder's default."""
    from repro.art.studies import register_boot_artifacts

    params = ctx.params
    options: Dict[str, Any] = {
        key: str(params[key])
        for key in (
            "gem5_version", "gem5_build", "resources_version", "resource",
        )
        if key in params
    }
    if "kernels" in params:
        options["kernels"] = [str(version) for version in params["kernels"]]
    artifacts = register_boot_artifacts(ctx.db, **options)
    kernels = artifacts.pop("kernels")
    return {
        "artifact_ids": {
            **{role: artifact.id for role, artifact in artifacts.items()},
            "kernels": {v: a.id for v, a in kernels.items()},
        },
        "artifact_hashes": {
            **{
                role: artifact.hash
                for role, artifact in artifacts.items()
            },
            "kernels": {v: a.hash for v, a in kernels.items()},
        },
        "kernel_versions": list(kernels),
    }


def stage_sweep(ctx: StageContext) -> Dict[str, Any]:
    """Launch the cross-product experiment over the registered stacks,
    or, with ``study``, the paper study its builder declares."""
    from repro.art.artifact import Artifact
    from repro.art.launch import Experiment
    from repro.art.studies import (
        add_boot_stacks,
        gpu_regalloc_study,
        parsec_study,
    )

    params = ctx.params
    name = f"{ctx.pipeline_name}/{ctx.stage.name}"
    study = params.get("study")
    if study is not None:
        build = {"parsec": parsec_study, "gpu": gpu_regalloc_study}.get(
            str(study)
        )
        if build is None or len(params) > 1:
            raise ValidationError(
                f"stage {ctx.stage.name!r}: a sweep's study is 'parsec', "
                "'gpu' or none (a boot sweep over an artifacts stage), "
                f"and a study sweep takes no other param (got {params})"
            )
        experiment = build(ctx.db)
        experiment.name = name
    else:
        experiment = Experiment(ctx.db, name)
        ids = ctx.source("artifacts_from", "artifact_ids")["artifact_ids"]
        artifacts = {
            role: Artifact.load(ctx.db, artifact_id)
            for role, artifact_id in ids.items()
            if role != "kernels"
        }
        artifacts["kernels"] = {
            version: Artifact.load(ctx.db, artifact_id)
            for version, artifact_id in ids["kernels"].items()
        }
        add_boot_stacks(experiment, artifacts)
        axes = {
            run_param: list(params[axis_param])
            for axis_param, run_param in SWEEP_AXES.items()
            if axis_param in params
        }
        if axes:
            experiment.sweep(**axes)
        fixed = params.get("fixed") or {}
        if not isinstance(fixed, Mapping):
            raise ValidationError(
                f"stage {ctx.stage.name!r}: 'fixed' must be a mapping"
            )
        if fixed:
            experiment.fix(**fixed)
    experiment.metadata = {
        "pipeline_id": ctx.pipeline_id,
        "pipeline": ctx.pipeline_name,
        "stage": ctx.stage.name,
    }
    # The manifest's validated ``execution`` settings are exactly
    # ``launch``'s keywords.
    experiment.launch(**ctx.execution)
    records = experiment.records()
    return {
        "experiment_id": experiment.experiment_id,
        "experiment_name": name,
        "run_ids": [record["run_id"] for record in records],
        "run_count": len(records),
        "run_status_counts": _counts(records, "status"),
    }


def _counts(records, field: str) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for record in records:
        counts[record[field]] = counts.get(record[field], 0) + 1
    return counts


def stage_analyze(ctx: StageContext) -> Dict[str, Any]:
    """Count the sweep's run outcomes per group of parameter axes.

    ``groups`` counts each run's ``outcome`` (``ok``, ``kernel_panic``,
    ...; ``created`` for a run without one), ``status_totals`` run
    statuses.  ``success_rate`` is the share of runs whose simulation
    ended ``ok``: a run that is ``done`` but whose kernel segfaulted or
    timed out is a recorded result, not a success.
    """
    from repro.art.launch import Experiment

    source = ctx.source("source", "experiment_id")
    keys = [str(key) for key in ctx.params.get("group_by", ["cpu_type"])]
    records = Experiment.load(ctx.db, source["experiment_id"]).records()
    groups: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        group = "|".join(str(record.get(key)) for key in keys)
        groups.setdefault(group, []).append(record)
    status_totals = _counts(records, "status")
    done = status_totals.get("done", 0)
    ok = sum(record["outcome"] == "ok" for record in records)
    return {
        "group_by": keys,
        "groups": {
            group: _counts(members, "outcome")
            for group, members in groups.items()
        },
        "status_totals": status_totals,
        "total_runs": len(records),
        "done_runs": done,
        "success_rate": (ok / len(records)) if records else 0,
    }


def stage_render(ctx: StageContext) -> Dict[str, Any]:
    """Render the analysis as a text report in the FileStore."""
    params = ctx.params
    source = ctx.source("source", "groups")
    title = str(params.get("title", ctx.pipeline_name))
    keys = source.get("group_by", [])
    groups = source.get("groups", {})
    label = "|".join(keys) if keys else "group"
    width = max([len(label)] + [len(key) for key in groups])
    lines = [
        title,
        f"{label:<{width}}  outcomes",
        "-" * (width + 10),
    ]
    for group in sorted(groups):
        counts = groups[group]
        summary = " ".join(
            f"{status}={counts[status]}" for status in sorted(counts)
        )
        lines.append(f"{group:<{width}}  {summary}")
    lines.append("-" * (width + 10))
    lines.append(
        f"total={source.get('total_runs', 0)} "
        f"done={source.get('done_runs', 0)}"
    )
    text = "\n".join(lines) + "\n"
    blob_id = ctx.db.upload_file(text.encode("utf-8"))
    return {
        "report_blob": blob_id,
        "line_count": len(lines),
        "title": title,
    }


def stage_python(ctx: StageContext) -> Dict[str, Any]:
    """Call ``params.target`` (``package.module:function``) with the
    context — the escape hatch for custom reproductions and tests."""
    target = str(ctx.params.get("target", ""))
    function: Callable[[StageContext], Any] = resolve_target(target)
    outputs = function(ctx)
    if not isinstance(outputs, Mapping):
        raise ValidationError(
            f"stage {ctx.stage.name!r}: {target} must return a mapping "
            f"of outputs (got {type(outputs).__name__})"
        )
    return dict(outputs)


#: kind → implementation; keys must match ``manifest.KNOWN_STAGE_KINDS``.
STAGE_KINDS: Dict[str, Callable[[StageContext], Dict[str, Any]]] = {
    "artifacts": stage_artifacts,
    "sweep": stage_sweep,
    "analyze": stage_analyze,
    "render": stage_render,
    "python": stage_python,
}
