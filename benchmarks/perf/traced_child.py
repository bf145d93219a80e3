#!/usr/bin/env python3
"""One traced sample: the workload's command under timing wrappers.

    python traced_child.py --out FILE --sample ID (cli|fig679) ARGV...

runs ``repro.cli.main(ARGV)`` or ``drive_fig679.main(ARGV)`` in this
fresh interpreter — the same shape as an untraced sample — wrapping
exactly the public callables listed in :data:`TARGETS`, each the moment
the command itself imports its module (the command's lazy imports stay
lazy, so a traced sample imports what an untraced one does).  A span
is ``(id, "layer.op", thread, start, end, parent)`` with times in
``perf_counter_ns`` nanoseconds (integers: a fifth of the cost of
floats to write out); spans stay in memory and are written to FILE as
two JSON lines when the command returns: the spans, then the clock
readings the harness needs to place this process inside its own
wall-clock.

The span arithmetic (:func:`self_times`) lives here too so the harness
and the unit tests share it with the recorder.

Only the standard library is imported at module level: the process
substrate re-imports ``__main__`` in every spawned worker.
"""

import argparse
import functools
import importlib
import importlib.util
import itertools
import json
import resource
import sys
import threading
import time

#: (metric prefix, module, attribute path).  Several targets may share a
#: prefix: their calls and self time add up.
TARGETS = (
    ("resources.build", "repro.resources.catalog", "build_resource"),
    ("art.register", "repro.art.artifact", "register_repo"),
    ("art.register", "repro.art.artifact", "register_gem5_binary"),
    ("art.register", "repro.art.artifact", "register_kernel_binary"),
    ("art.register", "repro.art.artifact", "register_disk_image"),
    ("art.create_runs", "repro.art.launch", "Experiment.create_runs"),
    # fig679-procs has no Experiment: its driver's create_runs and its
    # direct run_jobs_scheduler call are the same two steps.
    ("art.create_runs", "drive_fig679", "create_runs"),
    ("art.launch", "repro.art.launch", "Experiment.launch"),
    ("art.launch", "repro.art.tasks", "run_jobs_scheduler"),
    ("art.run", "repro.art.run", "Gem5Run.run"),
    ("art.run_in_pool", "repro.art.run", "Gem5Run.run_in_pool"),
    ("art.adopt", "repro.art.run", "Gem5Run.adopt_cached"),
    ("art.cache.consult", "repro.art.cache", "RunCache.consult"),
    ("art.cache.store", "repro.art.cache", "RunCache.store"),
    ("db.connect", "repro.db.client", "connect"),
    ("db.insert", "repro.db.collection", "Collection.insert_one"),
    ("db.find", "repro.db.collection", "Collection.find"),
    ("db.update", "repro.db.collection", "Collection.update_one"),
    ("db.replace", "repro.db.collection", "Collection.replace_one"),
    ("db.fs_put", "repro.db.filestore", "FileStore.put_bytes"),
    ("db.fs_get", "repro.db.filestore", "FileStore.get_bytes"),
    ("db.save", "repro.db.database", "Database.save"),
    ("scheduler.app.submit", "repro.scheduler.app", "SchedulerApp.send_task"),
    ("scheduler.app.wait", "repro.scheduler.result", "ResultBackend.wait"),
    ("scheduler.app.shutdown", "repro.scheduler.app", "SchedulerApp.shutdown"),
    ("scheduler.procpool.submit", "repro.scheduler.procpool",
     "ProcessPool.submit"),
    ("scheduler.procpool.result", "repro.scheduler.procpool",
     "ProcJobHandle.result"),
    ("scheduler.procpool.shutdown", "repro.scheduler.procpool",
     "ProcessPool.shutdown"),
    ("sim.run_fs", "repro.sim.simulator", "Gem5Simulator.run_fs"),
    ("gpu.execute", "repro.gpu.device", "GPUDevice.execute"),
    ("pipeline.run", "repro.pipeline.executor", "run_pipeline"),
    ("common.new_uuid", "repro.common.ids", "new_uuid"),
    ("common.stable_dumps", "repro.common.jsonutil", "stable_dumps"),
    ("common.canonical_dumps", "repro.common.jsonutil", "canonical_dumps"),
)

#: The span covering the import of the command's own module.
IMPORT = "cli.import"


class Tracer:
    """In-memory span recorder; one parent stack per thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, func):
        spans, ids, local = self.spans, self._ids, self._local
        clock, ident = time.perf_counter_ns, threading.get_ident

        @functools.wraps(func)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, ident(), start, end, parent))

        return traced


def rebind(original, replacement) -> None:
    """Point every name bound to ``original`` in an imported ``repro*``
    module (or the fig679 driver) at ``replacement``.

    Module-level functions are imported by name all over the package,
    so patching the defining module alone would miss most callers."""
    for name, module in list(sys.modules.items()):
        if module is None or not (
            name == "repro" or name.startswith("repro.")
            or name == "drive_fig679"
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer, targets):
    """Wrap every target of the already imported modules: methods on
    their class, functions by name."""
    for name, module_name, path in targets:
        owner = sys.modules[module_name]
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = getattr(owner, attr)
        replacement = tracer.wrap(name, original)
        setattr(owner, attr, replacement)
        if not parents:
            rebind(original, replacement)


class PatchOnImport:
    """Meta-path finder that wraps a module's targets as soon as the
    module has executed — before any importer can copy a name out of it
    (a partial import in a cycle is caught by :func:`rebind`)."""

    def __init__(self, tracer, targets=TARGETS):
        self.tracer = tracer
        self.pending = {}
        for target in targets:
            self.pending.setdefault(target[1], []).append(target)

    def find_spec(self, name, path=None, target=None):
        targets = self.pending.pop(name, None)
        if targets is None:
            return None
        # Popped first: this lookup comes back through this finder.
        spec = importlib.util.find_spec(name)
        if spec is None:
            return None
        execute = spec.loader.exec_module

        def exec_module(module):
            execute(module)
            install(self.tracer, targets)

        spec.loader.exec_module = exec_module
        return spec


def self_times(spans):
    """``{name: [calls, self_time]}`` in the spans' own time unit: each
    span's duration minus the time its direct children took.  A span's
    parent is always on its own thread, so work another thread did
    meanwhile is never subtracted."""
    covered = {}
    for _, _, _, start, end, parent in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0) + (end - start)
    totals = {}
    for span_id, name, _, start, end, _ in spans:
        entry = totals.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += (end - start) - covered.get(span_id, 0)
    return totals


def root_seconds(spans, thread):
    """Wall-clock one thread spent under any span (its root spans)."""
    return sum(
        end - start
        for _, _, ident, start, end, parent in spans
        if ident == thread and parent is None
    )


def main(argv=None) -> int:
    first = time.time()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--sample", required=True)
    parser.add_argument("kind", choices=("cli", "fig679"))
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    tracer = Tracer()
    sys.meta_path.insert(0, PatchOnImport(tracer))
    module = tracer.wrap(IMPORT, importlib.import_module)(
        "repro.cli" if args.kind == "cli" else "drive_fig679"
    )
    if args.kind == "fig679":
        # A spawned pool worker re-imports the parent's main script.
        # Point it at the driver, so that workers start exactly as an
        # untraced sample's do and never import this file.
        sys.modules["__main__"].__file__ = module.__file__
    command = module.main
    started = time.perf_counter()
    code = command(args.argv)
    ended = time.perf_counter()
    last = time.time()
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(args.out, "w", encoding="utf-8") as handle:
        # dumps, not dump: only the one-shot encoder is the C one.
        handle.write(
            json.dumps({"sample": args.sample, "spans": tracer.spans}) + "\n"
        )
        handle.flush()
        clock = {
            "first": first,
            "last": last,
            "command_s": ended - started,
            "main_thread": threading.get_ident(),
            "children_cpu_s": children.ru_utime + children.ru_stime,
            "dumped": time.time(),
        }
        handle.write(json.dumps(clock) + "\n")
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
