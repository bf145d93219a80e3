"""Check the benchmark's trajectory: ``benchmarks/history/<workload>.jsonl``.

Usage::

    python benchmarks/history/check.py [DIRECTORY]

checks the ``<workload>.jsonl`` files beside it (or in DIRECTORY),
prints each problem and exits 1 when there is one.  Each line of a file
is one (PR, workload, metric) comparison of a change against its parent:

- ``pr``, ``workload`` (the file's name) and ``metric`` (a name
  ``BENCHMARK.json`` declares);
- ``parent`` and ``change``: the two commits, full shas.  ``change`` is
  ``null`` on a line written in the commit it measures;
- ``seeds`` (one per pair), ``pairs`` and ``won``: the pairs the change
  read better in, ties counting for neither;
- ``median``, ``q1`` and ``q3`` of the paired change/parent ratios;
- ``host_slowdown``: how many times slower than the reference host this
  one ran.  Per run of ``run.py``, it is the CPU seconds of
  ``benchmarks/perf/calibrate.py``, run as a child on the same CPU just
  before and just after, averaged and divided by ``run.py``'s
  ``REFERENCE_KERNEL_S`` (0.4 s); the line holds the median over the
  runs of both trees;
- ``source``: ``prose`` for numbers copied from CHANGES.md, where
  ``seeds``, ``q1``, ``q3`` and ``host_slowdown`` are ``null`` if it did
  not record them, or ``ledger`` for numbers ``benchmarks/ledger.py``
  recorded;
- ``before`` and ``after``: the parent's and the change's medians,
  required for a metric that repeats exactly (unit ``B`` or ``count``),
  optional for any other;
- optional ``ratios``: every pair's ratio, in the order of ``seeds``.

A metric's lines in one file form a chain, in PR order.  Where every link
stores absolutes, the product of the median ratios up to each line must
equal that line's ``after`` over the first line's ``before`` within 1 %,
so a missing link or a mistyped number shows.
"""

import json
import math
import re
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DECLARED = HERE.parent.parent / "BENCHMARK.json"
FIELDS = {"pr": int, "workload": str, "metric": str, "parent": str,
          "change": (str, type(None)), "seeds": (list, type(None)),
          "pairs": int, "won": int, "median": float,
          "q1": (float, type(None)), "q3": (float, type(None)),
          "host_slowdown": (float, type(None)), "source": str}
OPTIONAL = {"before": (int, float), "after": (int, float), "ratios": list}
SHA = re.compile(r"[0-9a-f]{40}")
#: The units of metrics that repeat exactly: their lines store absolutes.
EXACT_UNITS = ("B", "count")


def line_problems(entry, workload, declared):
    """What is wrong with one line, as short messages; ``declared`` maps
    each metric name to its ``BENCHMARK.json`` entry."""
    if not isinstance(entry, dict):
        return ["not a JSON object"]
    found = [f"{key}: missing" for key in FIELDS if key not in entry]
    found += [f"{key}: not a field" for key in entry
              if key not in FIELDS and key not in OPTIONAL]
    found += [f"{key}: wrong type" for key, kind in {**FIELDS, **OPTIONAL}
              .items() if key in entry and not isinstance(entry[key], kind)]
    if found:
        return found
    if entry["workload"] != workload:
        found.append(f"workload {entry['workload']!r} in {workload}.jsonl")
    metric = declared.get(entry["metric"])
    if metric is None:
        return [f"metric {entry['metric']!r} is not declared"]
    if metric["unit"] in EXACT_UNITS and "before" not in entry:
        found.append("a metric that repeats exactly stores before and after")
    if not all(SHA.fullmatch(sha) for sha in
               (entry["parent"], entry["change"] or "0" * 40)):
        found.append("parent and change must be full shas")
    if entry["source"] not in ("prose", "ledger"):
        found.append(f"source {entry['source']!r}")
    if entry["source"] == "ledger" and None in (
            entry["seeds"], entry["q1"], entry["q3"], entry["host_slowdown"]):
        found.append("a ledger line records seeds, quartiles and slowdown")
    if entry["pairs"] < 1 or not 0 <= entry["won"] <= entry["pairs"]:
        found.append("pairs must be at least 1, and won within 0..pairs")
    quartiles = [entry["q1"], entry["median"], entry["q3"]]
    if entry["q1"] is not None and sorted(quartiles) != quartiles:
        found.append("q1 <= median <= q3 does not hold")
    for key in ("seeds", "ratios"):
        if entry.get(key) is not None and len(entry[key]) != entry["pairs"]:
            found.append(f"{key} does not hold one value per pair")
    if ("before" in entry) != ("after" in entry):
        found.append("before and after come together")
    ratios = entry.get("ratios")
    if ratios and not found:
        sign = 1 if metric["better"] == "lower" else -1
        if sum(sign * (1 - ratio) > 0 for ratio in ratios) != entry["won"]:
            found.append("won does not count the ratios that are better")
        if not math.isclose(statistics.median(ratios), entry["median"],
                            rel_tol=1e-3):
            found.append("median is not the ratios' median")
    return found


def problems(directory=HERE):
    """Every problem in the history files under ``directory``."""
    benchmark = json.loads(DECLARED.read_text())
    declared = {metric["name"]: metric for metric in
                benchmark["end_to_end"] + benchmark["per_layer"]}
    workloads = {workload["name"] for workload in benchmark["workloads"]}
    found = []
    for path in sorted(Path(directory).glob("*.jsonl")):
        if path.stem not in workloads:
            found.append(f"{path.name}: no workload {path.stem!r}")
        chains = {}
        for number, text in enumerate(path.read_text().splitlines(), 1):
            try:
                entry = json.loads(text)
            except ValueError as error:
                found.append(f"{path.name}:{number}: {error}")
                continue
            wrong = line_problems(entry, path.stem, declared)
            found += [f"{path.name}:{number}: {message}" for message in wrong]
            if not wrong:
                chains.setdefault(entry["metric"], []).append(entry)
        for metric, chain in chains.items():
            found += [f"{path.name}: {metric}: {message}"
                      for message in chain_problems(chain)]
    return found


def chain_problems(chain):
    """What is wrong with one metric's lines, in file order."""
    prs = [entry["pr"] for entry in chain]
    if prs != sorted(set(prs)):
        return [f"PRs {prs} are not in increasing order"]
    if not all("before" in entry for entry in chain):
        return []
    chained = 1.0
    for entry in chain:
        chained *= entry["median"]
        measured = entry["after"] / chain[0]["before"]
        if not math.isclose(chained, measured, rel_tol=0.01):
            return [f"the chained ratio {chained:.4f} is not the absolutes' "
                    f"{measured:.4f} (PRs {prs[0]}..{entry['pr']})"]
    return []


if __name__ == "__main__":
    found = problems(*sys.argv[1:2])
    print("\n".join(found) or "no problems")
    sys.exit(1 if found else 0)
