"""Figs 6, 7 and 9 as numbers: each figure's plotted values and the
quantities the paper claims about them, computed once from its study's
records (:meth:`repro.art.Experiment.records`) into one JSON document.

``repro parsec``, ``repro gpu``, the two study examples and the figure
suite render these documents, and ``examples/paper-full.yaml`` runs
:func:`figs6_7_stage` and :func:`fig9_stage` as ``python`` stages over
its sweeps, so its ``equals``/``at_least``/``at_most``/``within`` gates
hold every claim.  An ordering ("FAMutex is worst", "blackscholes and
ferret gain most") is a value here, a name or a sorted list, that an
``equals`` gate compares.  Every key is a string, core counts too, so a
gate's dotted path finds it before and after the JSON round trip.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence

from repro.analysis.queries import group_by, pivot
from repro.art.studies import PARSEC_CPU_COUNTS, PARSEC_OSES


def figs6_7(records: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Figs 6 and 7 from the PARSEC study's records.

    ``fig6``, keyed by core count: ``difference`` (each app's
    18.04 − 20.04 workload seconds), its ``mean`` and ``slower`` (how
    many apps take longer on 18.04); ``cores_by_mean`` lists the core
    counts, largest mean first.

    ``fig7``, keyed by release: ``speedup`` (each app's 1→8-core
    speedup) and its ``mean``; ``higher_mean`` names the release with
    the higher mean (18.04 on a tie).  ``gain`` is each app's
    20.04/18.04 speedup ratio, ``top_gains`` the two apps that gain
    most, by name, and ``least_speedup``, ``most_speedup``,
    ``least_gain`` and ``most_gain`` bound both releases' values.
    """
    seconds = {
        stack: pivot(group, "benchmark", "num_cpus", "workload_seconds")
        for (stack,), group in group_by(records, ["stack"]).items()
    }
    old, new = (seconds[stack] for stack in PARSEC_OSES)
    difference = {
        str(cores): {app: old[app][cores] - new[app][cores] for app in old}
        for cores in PARSEC_CPU_COUNTS
    }
    fig6_means = {cores: _mean(values) for cores, values in difference.items()}
    speedup = {
        stack: {app: t[1] / t[8] for app, t in seconds[stack].items()}
        for stack in PARSEC_OSES
    }
    old_speedup, new_speedup = (speedup[stack] for stack in PARSEC_OSES)
    gain = {app: new_speedup[app] / old_speedup[app] for app in old_speedup}
    fig7_means = {stack: _mean(values) for stack, values in speedup.items()}
    every_speedup = [s for values in speedup.values() for s in values.values()]
    return {
        "fig6": {
            "difference": difference,
            "mean": fig6_means,
            "slower": {
                cores: sum(value > 0 for value in values.values())
                for cores, values in difference.items()
            },
            "cores_by_mean": sorted(
                PARSEC_CPU_COUNTS, key=lambda c: -fig6_means[str(c)]
            ),
        },
        "fig7": {
            "speedup": speedup,
            "mean": fig7_means,
            "higher_mean": max(PARSEC_OSES, key=fig7_means.get),
            "gain": gain,
            "top_gains": sorted(sorted(gain, key=gain.get)[-2:]),
            "least_speedup": min(every_speedup),
            "most_speedup": max(every_speedup),
            "least_gain": min(gain.values()),
            "most_gain": max(gain.values()),
        },
    }


def fig9(records: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Fig 9 from the GPU study's records, keyed by workload: ``speedup``
    (T_simple/T_dynamic, the plotted bar) and ``relative_time``
    (T_dynamic/T_simple: 1.61 is "dynamic 61 % worse"); ``mean`` is the
    mean relative time and ``worst`` the workload with the largest."""
    ticks = pivot(records, "workload", "register_allocator", "shader_ticks")
    relative = {name: t["dynamic"] / t["simple"] for name, t in ticks.items()}
    return {
        "fig9": {
            "speedup": {
                name: t["simple"] / t["dynamic"] for name, t in ticks.items()
            },
            "relative_time": relative,
            "mean": _mean(relative),
            "worst": max(relative, key=relative.get),
        },
    }


def figs6_7_stage(ctx) -> Dict[str, Any]:
    """``python`` stage target: :func:`figs6_7` over the input sweep."""
    return figs6_7(_sweep_records(ctx))


def fig9_stage(ctx) -> Dict[str, Any]:
    """``python`` stage target: :func:`fig9` over the input sweep."""
    return fig9(_sweep_records(ctx))


def _sweep_records(ctx):
    from repro.art import Experiment

    source = ctx.source("source", "experiment_id")
    return Experiment.load(ctx.db, source["experiment_id"]).records()


def _mean(values: Mapping[str, float]) -> float:
    return sum(values.values()) / len(values)
