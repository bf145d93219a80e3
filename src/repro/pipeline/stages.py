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
  registered stacks and launch it through the scheduler; outputs the
  experiment id, run ids, and run status counts.
- ``analyze`` — group the sweep's run statuses by parameter axes.
- ``render`` — render the analysis as a text report, content-addressed
  into the FileStore.
- ``python`` — call a dotted-path function with the context (the escape
  hatch custom reproductions and the test-suite use).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from repro.common.errors import ValidationError
from repro.common.targets import resolve_target
from repro.art.artifact import (
    Artifact,
    register_disk_image,
    register_gem5_binary,
    register_kernel_binary,
    register_repo,
)
from repro.art.db import ArtifactDB
from repro.art.launch import Experiment
from repro.guest import BOOT_TEST_KERNEL_VERSIONS, get_kernel
from repro.resources import build_resource
from repro.sim import Gem5Build
from repro.pipeline.manifest import StageSpec

#: Sweep axis parameter → run parameter it sweeps.
SWEEP_AXES = {
    "cpu_types": "cpu_type",
    "num_cpus": "num_cpus",
    "memory_systems": "memory_system",
    "boot_types": "boot_type",
}


@dataclass
class StageContext:
    """Everything a stage implementation may see."""

    db: ArtifactDB
    pipeline_id: str
    pipeline_name: str
    stage: StageSpec
    attempt: int
    inputs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    execution: Dict[str, Any] = field(default_factory=dict)

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
    """Register the reproduction's artifact stack (the paper's Fig 1)."""
    params = ctx.params
    db = ctx.db
    gem5_version = str(params.get("gem5_version", "v20.1.0.4"))
    gem5_repo = register_repo(db, "gem5", version=gem5_version)
    resources_repo = register_repo(
        db,
        "gem5-resources",
        url="https://gem5.googlesource.com/public/gem5-resources",
        version=str(params.get("resources_version", "HEAD")),
    )
    # The binary build tracks the checked-out repo version unless the
    # manifest pins it separately; deriving it keeps a --set override
    # of gem5_version consistent (same-hash/different-attribute
    # registrations are refused by the artifact layer).
    gem5_build = str(
        params.get("gem5_build", gem5_version.lstrip("v"))
    )
    gem5_binary = register_gem5_binary(
        db, Gem5Build(version=gem5_build), inputs=[gem5_repo]
    )
    image = build_resource(str(params.get("resource", "boot-exit"))).image
    disk = register_disk_image(db, image, inputs=[resources_repo])
    kernel_versions = [
        str(version)
        for version in params.get("kernels", BOOT_TEST_KERNEL_VERSIONS)
    ]
    kernels = {
        version: register_kernel_binary(db, get_kernel(version))
        for version in kernel_versions
    }
    artifacts = {
        "gem5": gem5_binary,
        "gem5_git": gem5_repo,
        "run_script_git": resources_repo,
        "disk_image": disk,
    }
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
        "kernel_versions": kernel_versions,
    }


def stage_sweep(ctx: StageContext) -> Dict[str, Any]:
    """Launch the cross-product experiment over the registered stacks."""
    params = ctx.params
    source = ctx.source("artifacts_from", "artifact_ids")
    ids = source["artifact_ids"]
    name = f"{ctx.pipeline_name}/{ctx.stage.name}"
    if ctx.attempt > 1:
        name = f"{name}#attempt{ctx.attempt}"
    experiment = Experiment(
        ctx.db,
        name,
        metadata={
            "pipeline_id": ctx.pipeline_id,
            "pipeline": ctx.pipeline_name,
            "stage": ctx.stage.name,
            "attempt": ctx.attempt,
        },
    )
    roles = {
        role: Artifact.load(ctx.db, ids[role])
        for role in ("gem5", "gem5_git", "run_script_git", "disk_image")
    }
    for version, kernel_id in ids["kernels"].items():
        experiment.add_stack(
            version,
            linux_binary=Artifact.load(ctx.db, kernel_id),
            **roles,
        )
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
    runs = experiment.create_runs()
    # The manifest's validated ``execution`` settings are exactly
    # ``launch``'s keywords.
    experiment.launch(**ctx.execution)
    # ``run.status`` is what the planner wrote: no read-back.
    counts: Dict[str, int] = {}
    run_ids = []
    for run in runs:
        run_ids.append(run.run_id)
        counts[run.status.value] = counts.get(run.status.value, 0) + 1
    return {
        "experiment_id": experiment.experiment_id,
        "experiment_name": name,
        "run_ids": run_ids,
        "run_count": len(run_ids),
        "run_status_counts": counts,
    }


def stage_analyze(ctx: StageContext) -> Dict[str, Any]:
    """Group the sweep's run statuses by parameter axes."""
    params = ctx.params
    source = ctx.source("source", "run_ids")
    keys = [str(key) for key in params.get("group_by", ["cpu_type"])]
    groups: Dict[str, Dict[str, int]] = {}
    status_totals: Dict[str, int] = {}
    run_ids = list(source["run_ids"])
    for run_id in run_ids:
        doc = ctx.db.get_run(run_id)
        run_params = doc.get("params", {})
        group = "|".join(str(run_params.get(key)) for key in keys)
        status = doc["status"]
        bucket = groups.setdefault(group, {})
        bucket[status] = bucket.get(status, 0) + 1
        status_totals[status] = status_totals.get(status, 0) + 1
    done = status_totals.get("done", 0)
    return {
        "group_by": keys,
        "groups": groups,
        "status_totals": status_totals,
        "total_runs": len(run_ids),
        "done_runs": done,
        "success_rate": (done / len(run_ids)) if run_ids else 0,
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
    blob_id = ctx.db.upload_file(
        text.encode("utf-8"), filename="report.txt"
    )
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
