"""A command imports only the code it runs.

``repro.art``, ``repro.sim``, ``repro.sim.workload``, ``repro.analysis``
and ``repro.telemetry`` resolve their exports on first use (a ``_LAZY``
table), the ``artifacts`` and ``sweep`` stages import the simulator in
their bodies, and the GPU model and the process pool load only where a
GPU run or the ``processes`` substrate needs them.  So a ``repro
reproduce`` whose stages are all cached loads no simulator, an inline
boot sweep loads neither the GPU model nor the scheduler, and a boot
sweep whose runs all adopt from the run cache loads no simulator
either.  Each probe runs the CLI in a fresh interpreter and reads its
``sys.modules`` afterwards.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import repro
from repro.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
MANIFEST = os.path.join(REPO_ROOT, "examples", "paper.yaml")

#: Runs the CLI on argv, then prints the ``repro`` modules it loaded.
PROBE = (
    "import json, sys\n"
    "from repro.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps(sorted(name for name in sys.modules"
    " if name.split('.')[0] == 'repro')))\n"
    "sys.exit(code)\n"
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


def _loaded_after(cwd, *argv, probe=PROBE):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        cwd=str(cwd), capture_output=True, text=True, env=env,
        check=True, timeout=120,
    ).stdout.splitlines()
    return set(json.loads(out[-1]))


def test_a_fully_cached_reproduce_loads_no_simulator(tmp_path):
    db = f"file://{tmp_path / 'db'}"
    argv = ("reproduce", MANIFEST, "--db", db, "--quiet")
    assert {"repro.sim", "repro.art.launch"} <= _loaded_after(tmp_path, *argv)
    warm = _loaded_after(tmp_path, *argv, "--expect-cache-hits", "100")
    assert sorted(warm & set(SIMULATION_MODULES)) == []


def test_an_inline_sweep_loads_neither_the_gpu_model_nor_the_scheduler(
    tmp_path,
):
    loaded = _loaded_after(tmp_path, "boot-tests", "--quick")
    assert "repro.sim.simulator" in loaded
    assert sorted(loaded & {"repro.gpu", "repro.scheduler"}) == []
    assert sorted(loaded & WORKLOAD_FAMILIES) == []


def test_a_warm_boot_sweep_loads_no_simulator(tmp_path, capsys):
    db = f"file://{tmp_path / 'db'}"
    assert main(["boot-tests", "--quick", "--db", db]) == 0
    capsys.readouterr()
    loaded = _loaded_after(tmp_path, "boot-tests", "--quick", "--db", db)
    assert "repro.analysis.charts" in loaded
    assert sorted(
        name for name in loaded
        if name in SIMULATOR_MODULES or name.startswith(SIMULATOR_PACKAGES)
    ) == []


def test_the_process_jobs_module_preloads_what_a_seat_runs(tmp_path):
    """``procjobs`` is imported before the pool's first fork, so every
    seat inherits the simulator instead of importing it itself."""
    probe = (
        "import json, sys\n"
        "import repro.art.procjobs\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    loaded = _loaded_after(tmp_path, probe=probe)
    assert {"repro.sim.simulator", "repro.sim.workload.registry"} <= loaded


def _lazy_packages():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            package = importlib.import_module(info.name)
            if hasattr(package, "_LAZY"):
                yield package


def test_every_lazy_export_is_its_submodules_object():
    packages = list(_lazy_packages())
    assert len(packages) >= 6
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
    assert len(packages) >= 6
    for package in packages:
        for name in package._LAZY:
            vars(package).pop(name, None)  # as before its first use
            value = getattr(package, name)
            assert vars(package)[name] is value, (package.__name__, name)
