"""A command imports only the code it runs.

``repro.art``, ``repro.sim``, ``repro.sim.workload``, ``repro.analysis``,
``repro.chaos``, ``repro.resources`` and ``repro.telemetry`` resolve
(some of) their exports on first use (a ``_LAZY`` table), the
``artifacts`` and ``sweep`` stages import the simulator in their bodies,
and the GPU model and the process pool load only where a GPU run or the
``processes`` substrate needs them.  So a ``repro reproduce`` whose
stages are all cached loads no simulator, an inline boot sweep loads
neither the GPU model nor the scheduler, and a boot sweep whose runs all
adopt from the run cache loads no simulator either.

The same probes hold each command to a source budget: the lines of
every ``repro`` module it loaded, which is what an interpreter that
writes no bytecode compiles on every start.  ``repro.cli`` imports only
the family module of the verb it runs; ids are minted without
:mod:`uuid`; the chaos rule engine, the real telemetry classes, the
checkpoint store and the GPU build environment load only when a command
uses them; no record class is a ``@dataclass`` (:mod:`dataclasses` is
the only importer of :mod:`inspect`, :mod:`ast` and :mod:`dis` on these
paths, and compiles methods for every class it decorates).  Each probe
runs the CLI in a fresh interpreter and reads its ``sys.modules``
afterwards.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
MANIFEST = os.path.join(REPO_ROOT, "examples", "paper.yaml")

#: Prints what the process loaded: every module name, and the source
#: lines of the ``repro`` modules among them.
REPORT = (
    "lines = sum(\n"
    "    open(module.__file__, encoding='utf-8').read().count('\\n')\n"
    "    for name, module in list(sys.modules.items())\n"
    "    if name.split('.')[0] == 'repro'\n"
    "    and getattr(module, '__file__', None)\n"
    ")\n"
    "print(json.dumps({'modules': sorted(sys.modules), 'lines': lines}))\n"
)

#: Runs the CLI on argv, then reports what it loaded.
PROBE = (
    "import json, sys\n"
    "from repro.cli import main\n"
    "code = main(sys.argv[1:])\n"
    + REPORT
    + "sys.exit(code)\n"
)

#: Loaded by no command that does not use them: ids are not minted
#: through ``uuid``, no chaos rule is installed, telemetry is off, and
#: records are plain classes (:mod:`repro.common.records`).
NEVER_LOADED = (
    "uuid",
    "dataclasses",
    "inspect",
    "repro.chaos.injector",
    "repro.telemetry.metrics",
    "repro.telemetry.tracing",
    "repro.telemetry.events",
)

#: Nothing a fully cached reproduction runs lives in these.
SIMULATION_MODULES = (
    "repro.sim",
    "repro.gpu",
    "repro.guest",
    "repro.vfs",
    "repro.packer",
    "repro.resources",
    "repro.scheduler",
    "repro.art.run",
    "repro.art.tasks",
    "repro.art.launch",
    "repro.art.studies",
    "repro.pipeline.stages",
)

#: The benchmark families: a boot runs none of them.
WORKLOAD_FAMILIES = {
    f"repro.sim.workload.{name}"
    for name in ("parsec", "npb", "gapbs", "spec", "registry")
}

#: What only a simulation, a report or an archived trace needs.  The
#: packages count with every submodule.
SIMULATOR_MODULES = {
    f"repro.sim.{name}"
    for name in ("simulator", "engine", "config", "faults", "m5ops", "events")
} | {
    "repro.analysis.queries",
    "repro.analysis.report",
    "repro.analysis.validation",
    "repro.telemetry.export",
    "repro.telemetry.recorder",
}
SIMULATOR_PACKAGES = ("repro.sim.workload", "repro.sim.cpu", "repro.sim.mem")


def _probe(cwd, *argv, probe=PROBE):
    """``(modules loaded, repro source lines loaded)`` after ``argv``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        cwd=str(cwd), capture_output=True, text=True, env=env,
        check=True, timeout=120,
    ).stdout.splitlines()
    report = json.loads(out[-1])
    return set(report["modules"]), report["lines"]


def _loaded_after(cwd, *argv, probe=PROBE):
    return _probe(cwd, *argv, probe=probe)[0]


@pytest.fixture(scope="module")
def reproduce_probes(tmp_path_factory):
    """A cold, then a fully cached ``reproduce`` of the paper manifest
    on one database."""
    tmp_path = tmp_path_factory.mktemp("reproduce")
    argv = ("reproduce", MANIFEST, "--db", f"file://{tmp_path / 'db'}",
            "--quiet")
    cold = _probe(tmp_path, *argv)
    warm = _probe(tmp_path, *argv, "--expect-cache-hits", "100")
    return cold, warm


@pytest.fixture(scope="module")
def cold_sweep(tmp_path_factory):
    return _probe(tmp_path_factory.mktemp("cold"), "boot-tests", "--quick")


@pytest.fixture(scope="module")
def warm_sweep(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("warm")
    db = f"file://{tmp_path / 'db'}"
    assert main(["boot-tests", "--quick", "--db", db]) == 0
    return _probe(tmp_path, "boot-tests", "--quick", "--db", db)


def test_a_fully_cached_reproduce_loads_no_simulator(reproduce_probes):
    (cold, _), (warm, _) = reproduce_probes
    assert {"repro.sim", "repro.art.launch", "repro.art.studies"} <= cold
    assert sorted(warm & set(SIMULATION_MODULES)) == []


def test_an_inline_sweep_loads_neither_the_gpu_model_nor_the_scheduler(
    cold_sweep,
):
    loaded, _ = cold_sweep
    assert "repro.sim.simulator" in loaded
    assert sorted(loaded & {"repro.gpu", "repro.scheduler"}) == []
    assert sorted(loaded & WORKLOAD_FAMILIES) == []


def test_a_warm_boot_sweep_loads_no_simulator(warm_sweep):
    loaded, _ = warm_sweep
    assert "repro.analysis.charts" in loaded
    assert sorted(
        name for name in loaded
        if name in SIMULATOR_MODULES or name.startswith(SIMULATOR_PACKAGES)
    ) == []


def test_a_fully_cached_reproduce_compiles_at_most_5700_lines(
    reproduce_probes,
):
    """6 939 lines when the CLI was one module and every command built
    the chaos injector and the telemetry classes."""
    _, (loaded, lines) = reproduce_probes
    assert lines <= 5700
    assert sorted(loaded & set(NEVER_LOADED)) == []


def test_a_cold_sweep_compiles_at_most_10200_lines(cold_sweep):
    """11 658 before the same cuts; a sweep without ``--checkpoints``
    builds no checkpoint store and a boot builds no GPU environment."""
    loaded, lines = cold_sweep
    assert lines <= 10200
    assert sorted(
        loaded & {*NEVER_LOADED, "repro.art.checkpoints",
                  "repro.resources.environment"}
    ) == []


def test_a_warm_sweep_compiles_fewer_lines_than_9715(warm_sweep):
    loaded, lines = warm_sweep
    assert lines < 9715
    assert sorted(loaded & set(NEVER_LOADED)) == []


def test_the_process_jobs_module_preloads_what_a_seat_runs(tmp_path):
    """``procjobs`` is imported before the pool's first fork, so every
    seat inherits the simulator instead of importing it itself."""
    probe = "import json, sys\nimport repro.art.procjobs\n" + REPORT
    loaded = _loaded_after(tmp_path, probe=probe)
    assert {"repro.sim.simulator", "repro.sim.workload.registry"} <= loaded


def test_no_module_imports_dataclasses():
    """A record declares its fields and writes its ``__init__``; the
    bases in :mod:`repro.common.records` compare, hash and print it."""
    root = os.path.dirname(repro.__file__)
    offenders = []
    for directory, _dirs, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(n.split(".")[0] == "dataclasses" for n in names):
                    offenders.append(os.path.relpath(path, root))
    assert offenders == []


def _lazy_packages():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            package = importlib.import_module(info.name)
            if hasattr(package, "_LAZY"):
                yield package


def test_every_lazy_export_is_its_submodules_object():
    packages = list(_lazy_packages())
    assert len(packages) >= 8
    for package in packages:
        for name, submodule in package._LAZY.items():
            module = importlib.import_module(
                f"{package.__name__}.{submodule}"
            )
            assert getattr(package, name) is getattr(module, name), (
                package.__name__, name,
            )


def test_a_lazy_export_is_cached_by_its_first_use():
    """The first lookup stores the value in the package, so every later
    ``from package import name`` is a plain attribute read, not another
    trip through ``importlib``."""
    packages = list(_lazy_packages())
    assert len(packages) >= 8
    for package in packages:
        for name in package._LAZY:
            vars(package).pop(name, None)  # as before its first use
            value = getattr(package, name)
            assert vars(package)[name] is value, (package.__name__, name)
