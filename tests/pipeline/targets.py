"""Python-stage targets the pipeline tests reference by dotted path.

The executor imports these via ``params.target = 'tests.pipeline.targets:
<name>'`` — the escape hatch that lets tests drive the cache and gate
machinery without touching the simulator.

``CALLS`` records every invocation so tests can assert *which* stages
actually executed (vs cache hits); reset it per test via the fixture in
``conftest``-style setup or directly.
"""

from typing import Any, Dict, List

#: The stage name of every actual execution, in order.
CALLS: List[str] = []


def reset() -> None:
    del CALLS[:]


def emit(ctx) -> Dict[str, Any]:
    """Emit a configured value; records the call."""
    CALLS.append(ctx.stage.name)
    return {"value": ctx.params.get("value", 0)}


def add_inputs(ctx) -> Dict[str, Any]:
    """Sum every upstream ``value`` plus an optional ``salt`` param;
    records the call."""
    CALLS.append(ctx.stage.name)
    total = sum(
        outputs.get("value", 0) for outputs in ctx.inputs.values()
    ) + ctx.params.get("salt", 0)
    return {"value": total, "sources": sorted(ctx.inputs)}


def explode(ctx) -> Dict[str, Any]:
    """Always crashes — exercises the stage-error journaling path."""
    CALLS.append(ctx.stage.name)
    raise RuntimeError("boom")


def unserializable(ctx) -> Dict[str, Any]:
    """Returns outputs canonical JSON cannot encode; records the call."""
    CALLS.append(ctx.stage.name)
    return {"value": object()}
