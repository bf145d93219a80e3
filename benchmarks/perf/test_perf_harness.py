"""Unit tests of the tracer and a smoke test of the harness.

Collected by ``PYTHONPATH=src python -m pytest benchmarks/perf`` (not by
tier-1, whose ``testpaths`` is ``tests``).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import inspect_sample
import run
import traced_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ------------------------------------------------------- span arithmetic


def test_self_time_subtracts_direct_children_only():
    spans = [
        # (id, name, thread, start, end, parent)
        (0, "art.run", 1, 0.0, 10.0, None),
        (1, "db.insert", 1, 1.0, 4.0, 0),
        (2, "common.stable_dumps", 1, 2.0, 3.0, 1),
        (3, "db.insert", 1, 5.0, 6.0, 0),
    ]
    totals = traced_child.self_times(spans)
    assert totals["art.run"] == [1, pytest.approx(10.0 - 3.0 - 1.0)]
    assert totals["db.insert"] == [2, pytest.approx((3.0 - 1.0) + 1.0)]
    assert totals["common.stable_dumps"] == [1, pytest.approx(1.0)]
    # Self times partition the root span: nothing is counted twice.
    assert sum(self_s for _, self_s in totals.values()) == pytest.approx(10.0)


def test_self_time_ignores_work_on_other_threads():
    spans = [
        (0, "scheduler.app.wait", 1, 0.0, 10.0, None),
        # A worker thread busy for the whole wait: its own root span.
        (1, "art.run", 2, 0.5, 9.5, None),
        (2, "db.insert", 2, 1.0, 2.0, 1),
    ]
    totals = traced_child.self_times(spans)
    assert totals["scheduler.app.wait"] == [1, pytest.approx(10.0)]
    assert totals["art.run"] == [1, pytest.approx(8.0)]
    assert traced_child.root_seconds(spans, 1) == pytest.approx(10.0)
    assert traced_child.root_seconds(spans, 2) == pytest.approx(9.0)


def test_tracer_records_parents_per_thread():
    tracer = traced_child.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", inner)
    outer()
    worker = threading.Thread(target=inner)
    worker.start()
    worker.join(timeout=5)
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[1], []).append(span)
    (outer_span,) = by_name["outer"]
    nested, alone = sorted(
        by_name["inner"], key=lambda span: span[5] is None
    )
    assert nested[5] == outer_span[0] and nested[2] == outer_span[2]
    assert alone[5] is None and alone[2] != outer_span[2]


def test_rebinding_intercepts_names_imported_by_value():
    import repro.art.run
    import repro.common.ids

    original = repro.common.ids.new_uuid
    assert repro.art.run.new_uuid is original
    tracer = traced_child.Tracer()
    traced_child.install(
        tracer, [("common.new_uuid", "repro.common.ids", "new_uuid")]
    )
    try:
        assert repro.art.run.new_uuid is not original
        identifier = repro.art.run.new_uuid()
        assert len(identifier) == 36
        assert [span[1] for span in tracer.spans] == ["common.new_uuid"]
    finally:
        traced_child.rebind(repro.art.run.new_uuid, original)
    assert repro.art.run.new_uuid is original
    assert repro.common.ids.new_uuid is original


def test_targets_are_wrapped_the_moment_their_module_is_imported(
    tmp_path, monkeypatch
):
    (tmp_path / "perf_defines.py").write_text("def leaf():\n    return 7\n")
    (tmp_path / "perf_copies.py").write_text(
        "from perf_defines import leaf\n\ndef call():\n    return leaf()\n"
    )
    monkeypatch.syspath_prepend(tmp_path)
    tracer = traced_child.Tracer()
    finder = traced_child.PatchOnImport(
        tracer, [("test.leaf", "perf_defines", "leaf")]
    )
    monkeypatch.setattr(sys, "meta_path", [finder] + sys.meta_path)
    try:
        import perf_copies

        assert perf_copies.call() == 7
        assert [span[1] for span in tracer.spans] == ["test.leaf"]
    finally:
        sys.modules.pop("perf_copies", None)
        sys.modules.pop("perf_defines", None)


def test_every_target_resolves():
    import importlib

    for _, module_name, path in traced_child.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner)


# ------------------------------------------------------- harness helpers


def test_importtime_counts_only_outermost_repro_imports():
    report = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | json",
            "import time:       300 |        300 |     uuid",
            "import time:       200 |        500 |   repro.common",
            "import time:      1000 |       1500 | repro.cli",
            "import time:       250 |        250 |   repro.db",
            "import time:        50 |        300 | drive_fig679",
        ]
    )
    seconds, modules = run.parse_importtime(report)
    assert seconds == pytest.approx((1500 + 250) / 1e6)
    assert modules == 3


def test_sample_count_and_tail_rules():
    # a 1.5 s sample is followed by one 0.5 s kernel run, a 0.25 s one by
    # a quarter of one
    assert run.sample_count(40.0, 1.5, 0.5) == 20
    assert run.sample_count(3.0, 0.25, 0.5) == 8
    assert run.sample_count(20.0, 7.2, 0.5) == run.MIN_SAMPLES
    assert run.sample_count(40.0, 0.1, 0.5) == run.MAX_SAMPLES
    assert run.tail(range(40)) == (29, 75.0)  # ten samples beyond p75
    assert run.tail(range(12)) == (11, 100.0)  # too few: the maximum


def test_times_are_rescaled_by_the_neighbouring_kernel_runs(tmp_path):
    ctx = run.Context(tmp_path, {}, 2, None, {})
    reference = run.REFERENCE_KERNEL_S
    # (spawned, exited, CPU seconds): the host is 1.2x, 1.6x, 2x slower
    ctx.calibrations = [
        (0.0, 1.0, 1.2 * reference), (5.0, 6.0, 1.6 * reference),
        (9.0, 10.0, 2.0 * reference),
    ]
    assert run.slowdown(ctx, 1.5, 4.5) == pytest.approx(1.4)
    assert run.slowdown(ctx, 6.5, 8.5) == pytest.approx(1.8)
    assert run.slowdown(ctx, 10.5, 12.0) == pytest.approx(2.0)  # none after
    # all of a CPU-bound second is rescaled, none of a sleep, and of a
    # parallel sample (more CPU than wall-clock) no more than all of it
    assert run.at_reference_speed(1.0, 1.0, 2.0) == pytest.approx(0.5)
    assert run.at_reference_speed(7.0, 1.0, 2.0) == pytest.approx(6.5)
    assert run.at_reference_speed(1.0, 1.8, 2.0) == pytest.approx(0.5)


def test_outcome_tables_are_read_from_the_childs_output():
    sweep = "launching 480 boot tests ...\nok             282\ntimeout  16\n"
    assert inspect_sample.observed_outcomes(sweep) == {"ok": 282, "timeout": 16}
    pipeline = "pipeline 0a97 succeeded: 1 executed, 3 cache hits (75%), 0 gate"
    assert inspect_sample.observed_outcomes(pipeline) == {
        "executed": 1, "cache_hit": 3,
    }


def test_spawn_kills_a_late_child_with_its_process_group(tmp_path):
    script = (
        "import subprocess, sys, time\n"
        "child = subprocess.Popen([sys.executable, '-c',"
        " 'import time; time.sleep(60)'])\n"
        "print(child.pid, flush=True)\n"
        "time.sleep(60)\n"
    )
    started = time.monotonic()
    code, *_ = run.spawn(
        [sys.executable, "-c", script], dict(os.environ), tmp_path,
        timeout=1.0,
    )
    assert code is None
    assert time.monotonic() - started < 10
    grandchild = int((tmp_path / "stdout").read_text())
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            state = Path(f"/proc/{grandchild}/stat").read_text().split()[2]
        except FileNotFoundError:
            break
        if state == "Z":
            break
        time.sleep(0.05)
    else:
        pytest.fail("the late child's own child survived the kill")


# ------------------------------------------------------- the declaration


def test_benchmark_json_names_and_sizes():
    workloads = [w["name"] for w in DECLARED["workloads"]]
    end_to_end = [m["name"] for m in DECLARED["end_to_end"]]
    per_layer = [m["name"] for m in DECLARED["per_layer"]]
    assert set(workloads) == set(run.WORKLOADS)
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16 and "setup_s" in end_to_end
    assert 1 <= len(per_layer) <= 128
    names = workloads + end_to_end + per_layer
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 for w in DECLARED["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    assert DECLARED["paths"] == ["benchmarks/perf"]
    expected = json.loads((HERE / "expected.json").read_text())
    assert set(expected) == set(workloads)


# ------------------------------------------------------------- smoke runs


def test_smoke_run_prints_every_declared_metric_with_its_unit():
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "reproduce-warm", "--samples", "2", "--traced"],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 15
    *table, last = done.stdout.strip().splitlines()
    printed = {}
    for line in table:
        fields = line.split()
        if len(fields) >= 3:
            printed[fields[0]] = fields[2]
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert printed.get(metric["name"]) == metric["unit"], metric
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    assert result["metrics"]["pipeline.stage_cache.hit_share"]["value"] == 1.0
    assert not (ROOT / ".bench_work").exists()


def test_a_directory_without_the_program_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "fig8-cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
