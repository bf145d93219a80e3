#!/usr/bin/env python3
"""Pair this tree against a parent commit on the benchmark.

    python3 benchmarks/ledger.py compare PARENT [--workload W ...]
        [--pairs 10] [--record]

checks PARENT and this tree's HEAD out side by side in a temporary
directory (``git worktree add --detach``, both removed again at the
end), brings this tree's uncommitted edits into the second, and runs
each tree's own ``benchmarks/perf/run.py --workload W --seed S
--seconds 15 --trace 0`` (the run length is ``BENCHMARK.json``'s
``run_seconds``) in pairs: a fresh seed for each pair, the two
trees in turn, and the tree that goes first alternating from pair to
pair.  The two trees are checkouts of the same kind at paths of equal
length, because where a tree lies, and whether it is a checkout or a
copy, moves ``peak_rss_mb`` by up to 0.12 MiB.  Just before and
just after every run it times ``benchmarks/perf/calibrate.py`` as a
child, so each line records how slow the host was (``host_slowdown``)
without the harness printing it.  Everything runs on one CPU.

For each workload and each end-to-end metric of ``BENCHMARK.json`` it
prints one line of the trajectory in ``benchmarks/history/`` (its schema
is the docstring of ``history/check.py``) to stdout; ``--record`` also
appends them to ``benchmarks/history/<workload>.jsonl`` and leaves the
files as they were if ``check.py`` then finds a problem.  A line is
numbered as the PR that measures against PARENT: the number the history
already gives that parent, else one past the highest.  It exits 1 when a
run is not ``correct`` or a line has a problem.  Stdlib only.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from benchmarks.history.check import (  # noqa: E402
    EXACT_UNITS, line_problems, problems,
)
from benchmarks.perf.run import REFERENCE_KERNEL_S  # noqa: E402

HISTORY = HERE / "history"


def say(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def git(*args) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True,
        text=True,
    ).stdout.strip()


def copy_edits(target: Path) -> None:
    """Make ``target``, a checkout of HEAD, hold what this tree holds:
    every file changed since HEAD, staged or not, and every untracked
    file that is not ignored."""
    names = git("diff", "-z", "--name-only", "HEAD").split("\0") + git(
        "ls-files", "-z", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        if (ROOT / name).is_file():
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, target / name)
        else:
            (target / name).unlink(missing_ok=True)


def kernel_cpu_s(env) -> float:
    """CPU seconds of one run of the reference kernel, as a child."""
    child = subprocess.Popen(
        [sys.executable, str(HERE / "perf" / "calibrate.py")], env=env,
    )
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise RuntimeError(f"calibrate.py exited {child.returncode}")
    return usage.ru_utime + usage.ru_stime


def run_once(tree: Path, workload: str, seed: int, seconds, env) -> dict:
    """One ``run.py`` of ``tree``: its last line, parsed."""
    done = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "perf" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{tree}: run.py exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def measure(trees, workload, seeds, seconds, env):
    """Both trees' results and every run's host slowdown, by tree."""
    results = {name: [] for name in trees}
    slowdowns = []
    kernel = kernel_cpu_s(env)
    for number, seed in enumerate(seeds):
        order = list(trees) if number % 2 == 0 else list(trees)[::-1]
        for name in order:
            result = run_once(trees[name], workload, seed, seconds, env)
            after = kernel_cpu_s(env)
            slowdowns.append((kernel + after) / 2 / REFERENCE_KERNEL_S)
            kernel = after
            results[name].append(result)
        cpu = {name: runs[-1]["metrics"]["cpu_s"]["value"]
               for name, runs in results.items()}
        say(f"{workload} pair {number + 1}/{len(seeds)} seed {seed}: "
            + ", ".join(f"{name} cpu_s {value:.4f}"
                        for name, value in cpu.items()))
    return results, slowdowns


def history_lines(pr, parent, workload, seeds, results, slowdowns, declared):
    """One history line per end-to-end metric.  Only a metric that
    repeats exactly stores the two medians: for any other, the median of
    the paired ratios need not be the ratio of the medians, which is
    what ``check.py`` chains."""
    lines = []
    for metric, spec in declared.items():
        before = [r["metrics"][metric]["value"] for r in results["parent"]]
        after = [r["metrics"][metric]["value"] for r in results["change"]]
        ratios = [round(b / a if a != b else 1.0, 4)
                  for a, b in zip(before, after)]
        sign = 1 if spec["better"] == "lower" else -1
        q1, median, q3 = (statistics.quantiles(ratios, n=4,
                                               method="inclusive")
                          if len(ratios) > 1 else ratios * 3)
        line = {
            "pr": pr, "workload": workload, "metric": metric,
            "parent": parent, "change": None, "seeds": seeds,
            "pairs": len(seeds),
            "won": sum(sign * (1 - ratio) > 0 for ratio in ratios),
            "median": round(median, 6), "q1": round(q1, 6),
            "q3": round(q3, 6),
            "host_slowdown": round(statistics.median(slowdowns), 4),
            "source": "ledger", "ratios": ratios,
        }
        medians = statistics.median(before), statistics.median(after)
        if spec["unit"] in EXACT_UNITS:
            line["before"], line["after"] = (round(m, 6) for m in medians)
        say(f"{workload} {metric}: {medians[0]:.6g} -> {medians[1]:.6g} "
            f"{spec['unit']}, paired ratio {line['median']} "
            f"[{line['q1']}, {line['q3']}], won {line['won']}/{len(seeds)}")
        lines.append(line)
    return lines


def pr_number(parent: str) -> int:
    """The PR a line against ``parent`` belongs to."""
    entries = [json.loads(text) for path in HISTORY.glob("*.jsonl")
               for text in path.read_text().splitlines()]
    same = [entry["pr"] for entry in entries if entry["parent"] == parent]
    return same[0] if same else max(
        (entry["pr"] for entry in entries), default=0) + 1


def record(lines) -> list:
    """Append ``lines`` to their files; undo it if check.py objects."""
    kept = {}
    for line in lines:
        path = HISTORY / f"{line['workload']}.jsonl"
        if path not in kept:
            kept[path] = path.read_text() if path.exists() else None
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line) + "\n")
    found = problems()
    if found:
        for path, text in kept.items():
            if text is None:
                path.unlink()
            else:
                path.write_text(text)
    return found


def compare(args) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {spec["name"]: spec for spec in benchmark["end_to_end"]}
    declared = {spec["name"]: spec for spec in
                benchmark["end_to_end"] + benchmark["per_layer"]}
    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    pr = pr_number(parent)
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    if hasattr(os, "sched_setaffinity"):
        # run.py pins itself to the first CPU it may use; the kernel
        # must see the same CPU.
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    # A terminated ledger still removes its checkouts.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    scratch = Path(tempfile.mkdtemp(prefix="ledger-"))
    trees = {"parent": scratch / "parent", "change": scratch / "change"}
    lines, correct = [], True
    try:
        for name, commit in (("parent", parent), ("change", "HEAD")):
            git("worktree", "add", "--detach", str(trees[name]), commit)
        copy_edits(trees["change"])
        for workload in args.workload or [
                spec["name"] for spec in benchmark["workloads"]]:
            seeds = random.Random().sample(range(1, 1_000_000), args.pairs)
            results, slowdowns = measure(
                trees, workload, seeds, benchmark["run_seconds"], env)
            correct &= all(result["correct"] for runs in results.values()
                           for result in runs)
            lines += history_lines(pr, parent, workload, seeds, results,
                                   slowdowns, end_to_end)
    finally:
        for tree in trees.values():
            if tree.exists():
                git("worktree", "remove", "--force", str(tree))
        shutil.rmtree(scratch, ignore_errors=True)
    found = [f"{line['workload']} {line['metric']}: {problem}"
             for line in lines
             for problem in line_problems(line, line["workload"], declared)]
    for line in lines:
        print(json.dumps(line))
    if args.record and not found:
        found = record(lines)
    for problem in found:
        say(f"problem: {problem}")
    if not correct:
        say("a run's outputs did not match expected.json")
    return 0 if correct and not found else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="The line schema: benchmarks/history/check.py",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)
    pair = verbs.add_parser("compare", help="pair this tree against PARENT")
    pair.add_argument("parent", metavar="PARENT",
                      help="the commit to compare against")
    workloads = [spec["name"] for spec in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]]
    pair.add_argument("--workload", action="append", choices=workloads,
                      help="a workload to pair (repeatable; default: all)")
    pair.add_argument("--pairs", type=int, default=10,
                      help="pairs per workload (default %(default)s)")
    pair.add_argument("--record", action="store_true",
                      help="append the lines to benchmarks/history/")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        pair.error("--pairs must be at least 1")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
