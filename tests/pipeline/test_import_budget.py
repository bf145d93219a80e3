"""A command imports only the code it runs.

``repro.art`` resolves its exports on first use (its ``_LAZY`` table),
the ``artifacts`` and ``sweep`` stages import the simulator in their
bodies, and the GPU model and the process pool load only where a GPU
run or the ``processes`` substrate needs them.  So a ``repro reproduce``
whose stages are all cached loads no simulator, and an inline boot sweep
loads neither the GPU model nor the scheduler.  Each probe runs the CLI
in a fresh interpreter and reads its ``sys.modules`` afterwards.
"""

import importlib
import json
import os
import subprocess
import sys

import repro
import repro.art

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


def _loaded_after(cwd, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
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
    assert "repro.sim" in loaded
    assert sorted(loaded & {"repro.gpu", "repro.scheduler"}) == []


def test_every_lazy_export_is_its_submodules_object():
    for name in repro.art.__all__:
        module = importlib.import_module(
            f"repro.art.{repro.art._LAZY[name]}"
        )
        assert getattr(repro.art, name) is getattr(module, name), name
