"""Tests for the experiment reproducibility report."""

import pytest

from repro.analysis.report import experiment_report
from repro.art import (
    ArtifactDB,
    Experiment,
    register_disk_image,
    register_gem5_binary,
    register_kernel_binary,
    register_repo,
)
from repro.common.errors import NotFoundError
from repro.guest import get_distro
from repro.resources import build_resource
from repro.sim import Gem5Build


def launched_experiment(db, name="mini"):
    gem5_repo = register_repo(db, "gem5")
    resources_repo = register_repo(db, "gem5-resources", version="r1")
    experiment = Experiment(db, name)
    experiment.add_stack(
        "ubuntu-18.04",
        gem5=register_gem5_binary(db, Gem5Build(), inputs=[gem5_repo]),
        gem5_git=gem5_repo,
        run_script_git=resources_repo,
        linux_binary=register_kernel_binary(
            db, get_distro("18.04").kernel
        ),
        disk_image=register_disk_image(
            db, build_resource("parsec").image
        ),
    )
    experiment.fix(cpu_type="timing", memory_system="MESI_Two_Level")
    experiment.sweep(benchmark=["ferret"], num_cpus=[1, 8])
    experiment.launch(substrate="inline")
    return experiment


def test_report_contains_all_sections():
    db = ArtifactDB()
    launched_experiment(db)
    report = experiment_report(db)
    assert report.startswith("# Reproducibility report: mini")
    assert "## Input artifacts" in report
    assert "## Parameter space" in report
    assert "## Outcomes" in report


def test_report_lists_artifacts_with_hashes():
    db = ArtifactDB()
    launched_experiment(db)
    report = experiment_report(db)
    assert "gem5 binary" in report
    assert "disk image" in report
    assert "https://gem5.googlesource.com" in report
    assert "`" in report  # hashes rendered as code spans


def test_report_parameters_and_outcomes():
    db = ArtifactDB()
    launched_experiment(db)
    report = experiment_report(db)
    assert "swept `num_cpus` over `1`, `8`" in report
    assert "fixed `cpu_type` = `timing`" in report
    assert "Total runs: **2**" in report
    assert "| ok | 2 |" in report


def test_report_requires_unambiguous_experiment():
    db = ArtifactDB()
    with pytest.raises(NotFoundError):
        experiment_report(db)  # zero experiments
    launched_experiment(db, name="alpha")
    assert "alpha" in experiment_report(db)
    launched_experiment(db, name="beta")
    with pytest.raises(NotFoundError, match="alpha.*beta"):
        experiment_report(db)  # two: an archive holds exactly one
