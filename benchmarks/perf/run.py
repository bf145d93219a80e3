#!/usr/bin/env python3
"""One benchmark for the paper's real sweeps.

    python benchmarks/perf/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1 | --traced] [--aa] [--samples N]
        [--out FILE]

Runs the four workloads of ``BENCHMARK.json`` the way a user runs them —
a fresh child interpreter per sample against a ``file://`` database —
prints every metric by name with its unit and checks every sample's
outputs against ``expected.json``.  Everything runs on one CPU, and
times are divided by what the host makes of ``calibrate.py`` between the
samples.  End-to-end metrics come from
untraced samples; ``--traced`` adds samples run through
``traced_child.py`` for the per-layer numbers.  With ``--workload`` the
last line of output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  See README.md beside this file.
"""

import argparse
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Every byte the benchmark writes lands under here (gitignored).
WORK = ROOT / ".bench_work"

#: A child still running after this long is killed with its process
#: group and all of its operations count as failed.
CHILD_TIMEOUT_S = 120.0
#: Sampling budget per workload when --seconds is not given.
DEFAULT_SECONDS = 40.0
#: A workload whose sample is longer than this sets up twice, not three
#: times, and takes one traced sample, not one per four untraced.
LONG_SAMPLE_S = 4.0
MIN_SAMPLES = 3
MAX_SAMPLES = 40
#: The reference kernel (calibrate.py) runs before a sample whenever the
#: last one ended longer ago than this, and once after the last sample.
CALIBRATE_EVERY_S = 1.0
#: The kernel's CPU seconds on the reference host when it is calm.  Only
#: a scale: it makes a time "at reference speed" read like a time there.
REFERENCE_KERNEL_S = 0.4

#: As a user types it, relative to the checkout, where every child runs:
#: the pipeline journals the path it was given, and an absolute one would
#: make db_bytes_per_run depend on where the checkout lies.
MANIFEST = "examples/paper.yaml"
FIG679_RUNS = 118


def _boot_tests(uri, workers, rng):
    return ["boot-tests", "--db", uri, "--workers", str(workers)]


def _reproduce(uri, workers, rng):
    return ["reproduce", MANIFEST, "--db", uri, "--quiet"]


def _reproduce_warm(uri, workers, rng):
    return _reproduce(uri, workers, rng) + ["--expect-cache-hits", "90"]


def _fig679(uri, workers, rng):
    order = list(range(FIG679_RUNS))
    rng.shuffle(order)
    return [
        "--db", uri, "--workers", str(workers),
        "--order", ",".join(map(str, order)),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    #: which main() receives argv: repro.cli ("cli") or the fig679 driver
    kind: str
    argv: Callable
    #: cli argv that fills the template database a sample copies, if any
    prime: Optional[Callable] = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig8-cold", "cli", _boot_tests),
        Workload("fig8-warm", "cli", _boot_tests, prime=_boot_tests),
        Workload("fig679-procs", "fig679", _fig679),
        Workload("reproduce-warm", "cli", _reproduce_warm, prime=_reproduce),
    )
}

#: Spans do not reach into worker processes: these read 0 there and are
#: printed as not observed.
NOT_OBSERVED = {
    "fig679-procs": (
        "sim.run_fs.calls", "sim.run_fs.self_s", "sim.share",
        "gpu.execute.calls", "gpu.execute.self_s",
    ),
}


@dataclass
class Context:
    """What one invocation shares: where it writes, how children run."""

    root: Path
    env: Dict[str, str]
    workers: int
    rng: random.Random
    expected: Dict[str, dict]
    serial: int = 0
    #: (spawned, exited, CPU seconds) of every reference-kernel run so far
    calibrations: List[Tuple[float, float, float]] = field(
        default_factory=list
    )

    def fresh_dir(self, label: str) -> Path:
        self.serial += 1
        path = self.root / f"{self.serial:04d}-{label}"
        path.mkdir()
        return path


@dataclass
class Sample:
    directory: Path
    code: Optional[int]  # None: killed at CHILD_TIMEOUT_S
    wall_s: float
    cpu_s: float
    rss_mib: float
    db_bytes: int  # growth over the template copy
    spawned: float  # time.time() just before / after the child
    exited: float
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: per-layer numbers of a traced sample (empty when it failed)
    layers: Dict[str, float] = field(default_factory=dict)


# ------------------------------------------------------------- children


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(command, env, directory: Path, timeout=CHILD_TIMEOUT_S):
    """Run one child in its own process group until it exits.

    Returns ``(code, wall_s, cpu_s, rss_mib, spawned, exited)``; code is
    None when the child outlived ``timeout`` and was killed.  CPU and
    peak RSS are ``wait4``'s: the child plus every descendant it reaped.
    Output goes to files, so a chatty child never blocks on a pipe.
    The timeout is an interval timer, so this runs on the main thread.
    """
    expired = []

    def expire(signum, frame):
        expired.append(True)
        _kill_group(proc.pid)

    with open(directory / "stdout", "wb") as out, open(
        directory / "stderr", "wb"
    ) as err:
        spawned = time.time()
        started = time.perf_counter()
        proc = subprocess.Popen(
            command, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=out, stderr=err, start_new_session=True,
        )
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall_s = time.perf_counter() - started
        exited = time.time()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Pool workers orphaned by a crashed or killed parent die here.
    _kill_group(proc.pid)
    return (
        None if expired else proc.returncode,
        wall_s,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        spawned,
        exited,
    )


def command_for(workload: Workload, argv, trace_file=None, sample_id=""):
    python = [sys.executable]
    if trace_file is not None:
        return python + [
            str(HERE / "traced_child.py"), "--out", str(trace_file),
            "--sample", sample_id, workload.kind,
        ] + argv
    if workload.kind == "cli":
        return python + ["-m", "repro"] + argv
    return python + [str(HERE / "drive_fig679.py")] + argv


def tree_bytes(path: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(path)
        for name in names
    )


def prime(workload: Workload, ctx: Context, base: Path) -> Optional[Path]:
    """Fill the template database the warm workloads copy."""
    if workload.prime is None:
        return None
    template = base / "template"
    argv = workload.prime(f"file://{template}", ctx.workers, ctx.rng)
    code, *_ = spawn(command_for(workload, argv), ctx.env, base)
    if code != 0:
        raise RuntimeError(
            f"{workload.name}: priming exited {code}: "
            + (base / "stderr").read_text(errors="replace")[-2000:]
        )
    return template


def take_sample(
    workload: Workload, ctx: Context, template: Optional[Path],
    traced: bool = False,
) -> Sample:
    """One child run against a fresh (or freshly copied) database."""
    directory = ctx.fresh_dir(workload.name)
    db = directory / "db"
    before = 0
    if template is not None:
        shutil.copytree(template, db)
        before = tree_bytes(db)
    trace_file = directory / "trace.json" if traced else None
    argv = workload.argv(f"file://{db}", ctx.workers, ctx.rng)
    code, wall_s, cpu_s, rss_mib, spawned, exited = spawn(
        command_for(workload, argv, trace_file, directory.name),
        ctx.env, directory,
    )
    return Sample(
        directory, code, wall_s, cpu_s, rss_mib,
        tree_bytes(db) - before, spawned, exited,
    )


# ----------------------------------------------------------- host speed


def calibrate(ctx: Context) -> None:
    """Run the reference kernel once and note what it cost this host."""
    directory = ctx.root / "kernel"
    directory.mkdir(exist_ok=True)
    code, _, cpu_s, _, spawned, exited = spawn(
        [sys.executable, str(HERE / "calibrate.py")], ctx.env, directory
    )
    if code != 0:
        raise RuntimeError(f"reference kernel exited {code}")
    ctx.calibrations.append((spawned, exited, cpu_s))


def calibrate_if_due(ctx: Context) -> None:
    if time.time() - ctx.calibrations[-1][1] >= CALIBRATE_EVERY_S:
        calibrate(ctx)


def slowdown(ctx: Context, began: float, ended: float) -> float:
    """How many times slower than the reference host this one was between
    two moments: the kernel runs just before and just after, averaged,
    over ``REFERENCE_KERNEL_S``."""
    before = [cpu for _, exited, cpu in ctx.calibrations if exited <= began]
    after = [cpu for spawned, _, cpu in ctx.calibrations if spawned >= ended]
    return statistics.mean(before[-1:] + after[:1]) / REFERENCE_KERNEL_S


def at_reference_speed(wall_s: float, cpu_s: float, slower: float) -> float:
    """Wall-clock as the reference host would have read it: the part of
    it the CPUs were busy is rescaled, the waiting (sleeps, polls) not."""
    busy = min(cpu_s, wall_s)
    return wall_s - busy + busy / slower


# --------------------------------------------------------------- oracle


def operations(expected: dict) -> int:
    return sum(expected["outcomes"].values())


def check(samples: List[Sample], workload: Workload, ctx: Context) -> None:
    """Compare finished samples with the oracle (outside timing), record
    how many operations of each failed, and delete their files.

    Reading the samples' databases and traces happens in one child
    (``inspect_sample.py``): a child's ``ru_maxrss`` is never less than
    this process's at the moment it was spawned, so this process must
    not grow."""
    expected = ctx.expected[workload.name]
    total = operations(expected)
    finished = [sample for sample in samples if sample.code == 0]
    for sample in samples:
        if sample.code != 0:
            sample.failed = total
            sample.problems.append(
                "killed after %.0f s" % CHILD_TIMEOUT_S
                if sample.code is None
                else f"exit code {sample.code}: "
                + (sample.directory / "stderr").read_text(
                    errors="replace"
                )[-500:]
            )
    requests = [
        {
            "directory": str(sample.directory), "workers": ctx.workers,
            "wall_s": sample.wall_s, "spawned": sample.spawned,
            "exited": sample.exited,
        }
        for sample in finished
    ]
    inspector = subprocess.run(
        [sys.executable, str(HERE / "inspect_sample.py"),
         json.dumps(requests)],
        env=ctx.env, stdout=subprocess.PIPE, check=True,
    )
    for sample, found in zip(finished, json.loads(inspector.stdout)):
        sample.failed = sum(
            max(0, count - found["outcomes"].get(status, 0))
            for status, count in expected["outcomes"].items()
        )
        if sample.failed:
            sample.problems.append(f"outcomes {found['outcomes']}")
        if found["digest"] != expected["digest"]:
            sample.failed = total
            sample.problems.append(f"runs digest {found['digest']}")
        if not sample.failed:
            sample.layers = found["layers"]
    for sample in samples:
        shutil.rmtree(sample.directory)


# ---------------------------------------------------------- measurement


def processor_seconds() -> float:
    """CPU this process and every child it has waited for have used."""
    return sum(os.times()[:4])


def set_up(workload: Workload, ctx: Context):
    """Everything before the first timed sample, done several times:
    prime the template database, then one untimed warm-up sample; the
    reference kernel runs before each repetition and after the last.

    Returns ``(template, setup_seconds, warmup_wall_s)``: the template of
    the last repetition is the one the timed samples copy, the set-up
    times are at reference speed, the warm-up wall-clock is the median
    over the repetitions."""
    spans, walls, template, base, repetitions = [], [], None, None, 3
    while len(spans) < repetitions:
        if base is not None:
            shutil.rmtree(base)
        calibrate(ctx)
        began, cpu_before = time.time(), processor_seconds()
        base = ctx.fresh_dir(f"{workload.name}-setup")
        template = prime(workload, ctx, base)
        warmup = take_sample(workload, ctx, template)
        spans.append((began, time.time(), processor_seconds() - cpu_before))
        walls.append(warmup.wall_s)
        check([warmup], workload, ctx)
        if warmup.failed:
            raise RuntimeError(
                f"{workload.name}: warm-up sample failed: {warmup.problems}"
            )
        if warmup.wall_s > LONG_SAMPLE_S:
            repetitions = 2
    # Flushes what the repetitions deleted: without it the first three
    # fig8-cold samples of a run read 3-12 % slower than its later ones.
    os.sync()
    calibrate(ctx)
    times = [
        at_reference_speed(ended - began, cpu_s, slowdown(ctx, began, ended))
        for began, ended, cpu_s in spans
    ]
    return template, times, statistics.median(walls)


def sample_count(seconds: float, warmup_wall_s: float, kernel_s: float) -> int:
    """The one sizing rule, applied to the workload's own warm-up: how
    many samples, with the kernel runs between them, fit the budget."""
    kernels_each = min(1.0, warmup_wall_s / CALIBRATE_EVERY_S)
    each = warmup_wall_s + kernel_s * kernels_each
    return max(MIN_SAMPLES, min(MAX_SAMPLES, round(seconds / each)))


_IMPORT_LINE = re.compile(
    r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)$", re.MULTILINE
)


def parse_importtime(text: str):
    """``(seconds, modules)`` from ``-X importtime`` output: the summed
    cumulative time of ``repro*`` imports that no other ``repro*``
    import contains, and how many ``repro*`` modules were imported."""
    stack, modules, top_us = [], set(), 0
    # The report lists a module after the imports it triggered, two
    # spaces deeper each; read backwards, parents come first.
    for match in reversed(list(_IMPORT_LINE.finditer(text))):
        depth, name = len(match.group(3)) // 2, match.group(4)
        while stack and stack[-1][0] >= depth:
            stack.pop()
        ours = name == "repro" or name.startswith("repro.")
        if ours:
            modules.add(name)
            if not any(inside for _, inside in stack):
                top_us += int(match.group(2))
        stack.append((depth, ours))
    return top_us / 1e6, len(modules)


def import_probe(workload: Workload, ctx: Context, template):
    """``python -X importtime`` of the same command (for fig679-procs, of
    its driver's imports: worker processes would echo theirs)."""
    directory = ctx.fresh_dir(f"{workload.name}-imports")
    flags = [sys.executable, "-X", "importtime"]
    if workload.kind == "cli":
        db = directory / "db"
        if template is not None:
            shutil.copytree(template, db)
        argv = workload.argv(f"file://{db}", ctx.workers, ctx.rng)
        command = flags + ["-m", "repro"] + argv
    else:
        command = flags + ["-c", "import drive_fig679"]
    code, *_ = spawn(command, ctx.env, directory)
    report = (directory / "stderr").read_text(errors="replace")
    shutil.rmtree(directory)
    if code != 0:
        raise RuntimeError(f"{workload.name}: import probe exited {code}")
    return parse_importtime(report)


def tail(values):
    """``(value, percentile)``: the highest percentile with at least ten
    samples beyond it; the maximum when that would lie below the median
    (fewer than 21 samples)."""
    ordered = sorted(values)
    index = len(ordered) - 11
    if index < len(ordered) // 2:
        return ordered[-1], 100.0
    return ordered[index], 100.0 * (index + 1) / len(ordered)


@dataclass
class WorkloadRun:
    """One workload across the phases of a measurement set."""

    workload: Workload
    template: Optional[Path]
    setup_times: List[float]
    planned: int
    #: rounds after whose untraced sample a traced one follows
    traced_rounds: set
    samples: List[Sample] = field(default_factory=list)
    traced: List[Sample] = field(default_factory=list)
    #: index of the untraced sample taken just before each traced one
    partners: List[int] = field(default_factory=list)
    imports: tuple = (0.0, 0)


def measure(names, ctx: Context, seconds, fixed_samples, traced) -> dict:
    """One complete measurement set over the named workloads."""
    runs = []
    for name in names:
        workload = WORKLOADS[name]
        template, setup_times, warmup_wall_s = set_up(workload, ctx)
        kernel_s = statistics.median(
            exited - spawned for spawned, exited, _ in ctx.calibrations
        )
        planned = fixed_samples or sample_count(
            seconds, warmup_wall_s, kernel_s
        )
        # Three pairs leave trace.overhead_share at the mercy of the
        # host's drift (+-10 %); a quarter of the samples does not.
        wanted = 1 if warmup_wall_s > LONG_SAMPLE_S else max(3, planned // 4)
        runs.append(
            WorkloadRun(
                workload, template, setup_times, planned,
                # spread evenly over the rounds, so that the host's
                # drift reaches traced and untraced samples alike
                {planned * (2 * i + 1) // (2 * wanted) for i in range(wanted)}
                if traced else set(),
            )
        )
    # Round-robin: the host's speed drifts over minutes, so each round
    # takes one sample of every workload still owed one, in seeded order.
    for round_index in range(max(run.planned for run in runs)):
        due = [run for run in runs if round_index < run.planned]
        ctx.rng.shuffle(due)
        for run in due:
            calibrate_if_due(ctx)
            sample = take_sample(run.workload, ctx, run.template)
            run.samples.append(sample)
            if round_index in run.traced_rounds:
                calibrate_if_due(ctx)
                run.traced.append(
                    take_sample(run.workload, ctx, run.template, traced=True)
                )
                run.partners.append(round_index)
    calibrate(ctx)
    for run in runs:
        check(run.samples, run.workload, ctx)
        if traced:
            check(run.traced, run.workload, ctx)
            # One probe is one sample of a noisy host: the middle of three.
            run.imports = sorted(
                import_probe(run.workload, ctx, run.template)
                for _ in range(3)
            )[1]
    return {run.workload.name: summarize(run, ctx) for run in runs}


def summarize(run: WorkloadRun, ctx: Context) -> dict:
    """The metrics of one workload, by the names BENCHMARK.json uses."""
    ops = operations(ctx.expected[run.workload.name])
    checked = run.samples + run.traced
    attempted = ops * len(checked)
    failed = sum(sample.failed for sample in checked)
    walls = [sample.wall_s for sample in run.samples]
    slower = [slowdown(ctx, s.spawned, s.exited) for s in run.samples]
    result = {
        "samples": len(run.samples),
        "operations": ops,
        "attempted": attempted,
        "failed": failed,
        "problems": [p for sample in checked for p in sample.problems],
        "wall_samples_s": walls,
        "cpu_samples_s": [sample.cpu_s for sample in run.samples],
        "slowdown_samples": slower,
        "end_to_end": {
            "wall_s": statistics.median(
                at_reference_speed(s.wall_s, s.cpu_s, k)
                for s, k in zip(run.samples, slower)
            ),
            "cpu_s": statistics.median(
                s.cpu_s / k for s, k in zip(run.samples, slower)
            ),
            "peak_rss_mb": statistics.median(
                s.rss_mib for s in run.samples
            ),
            "db_bytes_per_run": statistics.median(
                s.db_bytes for s in run.samples
            ) / ops,
            "ok_share": 1.0 - failed / attempted,
            "setup_s": statistics.median(run.setup_times),
        },
        "per_layer": None,
    }
    if run.traced and all(sample.layers for sample in run.traced):
        names = run.traced[0].layers.keys()
        layers = {
            name: statistics.median(s.layers[name] for s in run.traced)
            for name in names
        }
        # Counts are exact: a count that moves between traced samples of
        # one workload means the trace (or the program) is not
        # deterministic, and a median would hide it.
        layers["trace.calls_mismatch"] = sum(
            1 for name in names
            if name.endswith(".calls")
            and len({s.layers[name] for s in run.traced}) > 1
        )
        layers["cli.import_s"], layers["cli.modules"] = run.imports
        # Each traced sample against the untraced ones just before and
        # after it: seconds apart, they saw the same host.
        layers["trace.overhead_share"] = statistics.median(
            sample.wall_s / statistics.mean(walls[index:index + 2]) - 1.0
            for sample, index in zip(run.traced, run.partners)
        )
        quartiles = statistics.quantiles(walls, n=4)
        layers["driver.samples"] = len(walls)
        layers["driver.host_slowdown"] = statistics.median(slower)
        layers["driver.wall_median_s"] = statistics.median(walls)
        layers["driver.cpu_median_s"] = statistics.median(
            s.cpu_s for s in run.samples
        )
        layers["driver.wall_iqr_s"] = quartiles[2] - quartiles[0]
        layers["driver.wall_tail_s"], layers["driver.wall_tail_pct"] = tail(
            walls
        )
        result["per_layer"] = layers
    return result


# --------------------------------------------------------------- report


def load_declared() -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": {w["name"]: w["why"] for w in declared["workloads"]},
        "end_to_end": {m["name"]: m for m in declared["end_to_end"]},
        "per_layer": {m["name"]: m for m in declared["per_layer"]},
    }


def result_line(result: dict, declared: dict, trace: int) -> str:
    """The one-object summary a driver reads from the last line."""
    group = "per_layer" if trace else "end_to_end"
    values = result[group] or {}
    if set(values) != set(declared[group]):
        raise RuntimeError(
            f"{group} metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(declared[group]))}"
        )
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": declared[group][name]["unit"]}
                for name, value in values.items()
            },
        }
    )


def print_set(results: dict, declared: dict) -> None:
    for name, result in results.items():
        ops, wall_s = result["operations"], result["end_to_end"]["wall_s"]
        print(
            f"\n== {name}: {result['samples']} samples of {ops} operations"
            f" ({ops / wall_s:.1f} operations/s)\n   {declared['workloads'][name]}"
        )
        for metric, value in result["end_to_end"].items():
            spec = declared["end_to_end"][metric]
            print(
                f"  {metric:<42} {value:>14.6g} {spec['unit']:<6}"
                f" ({spec['better']} is better, bound {spec['bound']})"
            )
        failed_share = result["failed"] / result["attempted"]
        print(
            f"  {'failed_share':<42} {failed_share:>14.6g} ratio "
            f" ({result['failed']} of {result['attempted']} operations)"
        )
        for problem in result["problems"]:
            print(f"  !! {problem}")
        if result["per_layer"] is None:
            continue
        hidden = NOT_OBSERVED.get(name, ())
        for metric, spec in declared["per_layer"].items():
            value, unit = result["per_layer"][metric], spec["unit"]
            shown = "not observed" if metric in hidden else f"{value:.6g}"
            print(f"  {metric:<42} {shown:>14} {unit}")
        if result["per_layer"]["trace.calls_mismatch"]:
            print("  !! call counts differ between the traced samples")


def compare(first: dict, second: dict, declared: dict) -> List[dict]:
    """A/A rows: how far two sets of the same code are apart, per
    end-to-end metric and workload, against the metric's bound."""
    rows = []
    for name in first:
        for metric, spec in declared["end_to_end"].items():
            a = first[name]["end_to_end"][metric]
            b = second[name]["end_to_end"][metric]
            difference = abs(b - a) / a
            rows.append(
                {
                    "workload": name, "metric": metric, "first": a,
                    "second": b, "difference": difference,
                    "bound": spec["bound"],
                    "within": difference <= spec["bound"],
                }
            )
    return rows


def print_comparison(rows: List[dict]) -> None:
    print("\n== A/A: two sets of the same code")
    print(
        f"  {'workload':<15} {'metric':<17} {'first':>12} {'second':>12}"
        f" {'difference':>10} {'bound':>6}"
    )
    for row in rows:
        print(
            f"  {row['workload']:<15} {row['metric']:<17}"
            f" {row['first']:>12.6g} {row['second']:>12.6g}"
            f" {row['difference']:>10.4f} {row['bound']:>6}"
            + ("" if row["within"] else "  EXCEEDED")
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Details: benchmarks/perf/README.md",
    )
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), default=None,
        help="run one workload (default: all four, round-robin) and end "
        "the output with its one-line JSON result",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seeds sample order and the fig679-procs submission order",
    )
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="timed sampling per workload (default %(default)s); the "
        "sample count is round(seconds / (warm-up sample + its kernel "
        f"runs)), {MIN_SAMPLES} to {MAX_SAMPLES}",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: also take traced samples and report the per-layer "
        "metrics (the JSON line then carries those)",
    )
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument(
        "--aa", action="store_true",
        help="measure two complete sets back to back and exit 1 if any "
        "end-to-end metric differs by more than its bound",
    )
    parser.add_argument(
        "--samples", type=int, default=None,
        help="fix the sample count (smoke tests only)",
    )
    parser.add_argument("--out", default=None, help="write all results as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no program to measure at {SRC}", file=sys.stderr)
        return 2
    declared = load_declared()
    names = [args.workload] if args.workload else list(declared["workloads"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    # repro.common.hostinfo.effective_cores(), restated: importing the
    # package would add 5 MiB to this process, and a child's ru_maxrss
    # starts from its parent's.
    pinnable = hasattr(os, "sched_setaffinity")
    cpus = sorted(os.sched_getaffinity(0)) if pinnable else []
    cores = len(cpus) or os.cpu_count() or 1
    if pinnable:
        # The children inherit it.  The vCPUs of a shared host slow down
        # separately, so only on one CPU do the reference kernel and the
        # samples see the same host (README.md, "Host speed").
        os.sched_setaffinity(0, cpus[:1])
    load_before = os.getloadavg()[0]
    WORK.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="perf-", dir=WORK))
    # A terminated harness still kills its child and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        ctx = Context(
            root=root, env=env, workers=min(2, cores),
            rng=random.Random(args.seed),
            expected=json.loads((HERE / "expected.json").read_text()),
        )
        sets = [
            measure(names, ctx, args.seconds, args.samples, args.trace)
            for _ in range(2 if args.aa else 1)
        ]
    finally:
        shutil.rmtree(root, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    load_after = os.getloadavg()[0]
    own_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    host = {
        "effective_cores": cores, "workers": ctx.workers,
        "pinned_to_cpu": cpus[0] if pinnable else None,
        "python": ".".join(map(str, sys.version_info[:3])), "seed": args.seed,
        "load_1min_start": load_before, "load_1min_end": load_after,
        "harness_rss_mib": own_rss_mib,
    }
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    if own_rss_mib >= min(
        result["end_to_end"]["peak_rss_mb"]
        for results in sets for result in results.values()
    ):
        print(
            "warning: this process grew as large as a sample; a child's "
            "ru_maxrss starts from its parent's, so peak_rss_mb is too high"
        )
    if max(load_before, load_after) > cores:
        print(
            f"warning: 1-minute load average exceeds the {cores} cores "
            "available; timings are contended"
        )
    for results in sets:
        print_set(results, declared)
    rows = compare(sets[0], sets[1], declared) if args.aa else []
    if rows:
        print_comparison(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"host": host, "sets": sets, "aa": rows}, handle, indent=1)
    failed = any(r["failed"] for results in sets for r in results.values())
    if args.workload:
        print(result_line(sets[-1][args.workload], declared, args.trace))
    return 1 if failed or not all(row["within"] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
