"""Per-rule tests: every rule in the pack has a positive case (the bug
is caught) and a negative case (the sanctioned pattern is not)."""

import os

import pytest

from repro.analysis import lint_paths
from tests.analysis.helpers import lint_source, write_tree

SPEC_PY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    "src", "repro", "art", "spec.py",
)


def rule_ids(source, path="src/repro/sim/fixture.py"):
    return [f.rule_id for f in lint_source(source, path)]


def reported(findings):
    """(rule id, offending source line) of every finding."""
    return [(f.rule_id, f.snippet) for f in findings]


# ------------------------------------------------------------- determinism


def test_acceptance_fixture_all_three_nondeterminism_kinds():
    """The ISSUE acceptance fixture: time.time(), unseeded
    random.random(), and datetime.now() in a sim module."""
    source = (
        "import time\n"
        "import random\n"
        "from datetime import datetime\n"
        "def seeded_fixture():\n"
        "    a = time.time()\n"
        "    b = random.random()\n"
        "    c = datetime.now()\n"
        "    return a, b, c\n"
    )
    ids = rule_ids(source)
    assert ids.count("DET-WALLCLOCK") == 2
    assert ids.count("DET-RANDOM") == 1


def test_source_rules_apply_everywhere_but_the_choke_points():
    """A raw clock read is a finding wherever it is — telemetry stamps
    its spans through ``timeutil`` like everyone else — and only
    ``DET-ORDER`` is still a matter of zones."""
    source = "import time\ndef f():\n    return time.time()\n"
    for path in (
        "src/repro/chaos/fixture.py",
        "src/repro/art/artifact.py",
        "src/repro/scheduler/fixture.py",
        "src/repro/telemetry/events.py",
    ):
        assert rule_ids(source, path) == ["DET-WALLCLOCK"], path
    for module in ("timeutil", "rng", "ids"):
        assert rule_ids(source, f"src/repro/common/{module}.py") == []
    order = "def f(xs):\n    for x in set(xs):\n        pass\n"
    assert rule_ids(order, "src/repro/sim/fixture.py") == ["DET-ORDER"]
    assert rule_ids(order, "src/repro/scheduler/fixture.py") == []


def test_os_entropy_is_a_random_source():
    source = (
        "import os\n"
        "import secrets\n"
        "def f():\n"
        "    return os.urandom(8), secrets.token_hex(8)\n"
    )
    assert rule_ids(source, "src/repro/db/fixture.py") == [
        "DET-RANDOM",
        "DET-RANDOM",
    ]


def test_sanctioned_escape_hatches_are_whitelisted():
    source = "import time\ndef wall_now():\n    return time.time()\n"
    assert rule_ids(source, "src/repro/common/timeutil.py") == []
    rng = "import random\nr = random.Random(42)\n"
    assert rule_ids(rng, "src/repro/common/rng.py") == []


def test_uuid4_flagged_in_zone():
    source = "import uuid\ndef f():\n    return uuid.uuid4()\n"
    assert "DET-UUID" in rule_ids(source)


def test_unseeded_random_constructor_flagged_seeded_not():
    assert "DET-RANDOM" in rule_ids(
        "import random\nr = random.Random()\n"
    )
    assert rule_ids("import random\nr = random.Random(1234)\n") == []


# A raw read on its way into run identity: however many calls lie
# between it and the fingerprint or memo key, the finding is the read
# itself, at its own line (the clean twin, which routes through
# ``timeutil``, is ``test_dataflow.py::test_sanctioned_chokepoint_is_clean``).


def test_wallclock_into_fingerprint_is_flagged(tmp_path):
    paths = write_tree(
        tmp_path,
        {
            "repro/expt/flow.py": """
                import time

                from repro.common.jsonutil import canonical_dumps

                def fingerprint_payload():
                    stamp = time.time()
                    return canonical_dumps({"at": stamp})
            """
        },
    )
    assert reported(lint_paths(paths)) == [
        ("DET-WALLCLOCK", "stamp = time.time()")
    ]


def test_taint_through_call_hops_is_flagged(tmp_path):
    """Source and sink two call hops apart: minted in one helper,
    passed through another that forwards to the sink."""
    paths = write_tree(
        tmp_path,
        {
            "repro/expt/hops.py": """
                import time

                from repro.common.jsonutil import canonical_dumps

                def mint():
                    return time.time()

                def serialize(payload):
                    return canonical_dumps(payload)

                def leak():
                    stamp = mint()
                    return serialize({"at": stamp})
            """
        },
    )
    assert reported(lint_paths(paths)) == [
        ("DET-WALLCLOCK", "return time.time()")
    ]


def test_memo_store_key_sink_is_inherited(tmp_path):
    """A clock read on its way to a memo-store key, through an inherited
    method of another module's class."""
    paths = write_tree(
        tmp_path,
        {
            "repro/art/cache.py": """
                class MemoStore:
                    def consult(self, key):
                        return None
            """,
            "repro/art/checkpoints.py": """
                from repro.art.cache import MemoStore

                class CheckpointStore(MemoStore):
                    def get(self, prefix):
                        return self.consult(prefix)
            """,
            "repro/expt/plan.py": """
                import time

                from repro.art.checkpoints import CheckpointStore

                class Planner:
                    def __init__(self):
                        self.store = CheckpointStore()

                    def boot_stage(self):
                        return self.store.get(str(time.time()))
            """,
        },
    )
    (finding,) = lint_paths(paths)
    assert finding.rule_id == "DET-WALLCLOCK"
    assert finding.file.endswith("plan.py")
    assert finding.snippet == "return self.store.get(str(time.time()))"


#: Nondeterminism seeded into the module that defines run identity:
#: (text of the real file, what replaces it, the finding expected).
JSON_RETURN = "        return canonical_dumps(self.canonical_document())\n"
SPEC_SEEDS = {
    "uuid-into-params": (
        "        return cls(kind=kind,",
        "        params = dict(params, nonce=uuid.uuid4().hex)\n"
        "        return cls(kind=kind,",
        ("DET-UUID", "params = dict(params, nonce=uuid.uuid4().hex)"),
    ),
    "clock-in-document-literal": (
        '            "params": dict(self.params),\n',
        '            "params": dict(self.params),\n'
        '            "t": time.time(),\n',
        ("DET-WALLCLOCK", '"t": time.time(),'),
    ),
    "clock-stored-by-subscript": (
        JSON_RETURN,
        "        doc = self.canonical_document()\n"
        '        doc["t"] = time.time()\n'
        "        return canonical_dumps(doc)\n",
        ("DET-WALLCLOCK", 'doc["t"] = time.time()'),
    ),
    "clock-through-a-local": (
        JSON_RETURN,
        "        stamp = time.time()\n"
        '        return canonical_dumps({"t": stamp})\n',
        ("DET-WALLCLOCK", "stamp = time.time()"),
    ),
}


@pytest.mark.parametrize("seed", sorted(SPEC_SEEDS))
def test_nondeterminism_seeded_into_run_identity_is_reported(seed, tmp_path):
    """The rule is pinned against real code: ``repro/art/spec.py`` as it
    is today lints clean, and with any one of four ways of letting the
    clock or a fresh uuid into ``RunSpec`` it is reported at the line
    that reads it."""
    with open(SPEC_PY, encoding="utf-8") as handle:
        source = handle.read().replace(
            "import annotations\n",
            "import annotations\n\nimport time\nimport uuid\n",
            1,
        )
    target = tmp_path / "repro" / "art" / "spec.py"
    target.parent.mkdir(parents=True)
    target.write_text(source, encoding="utf-8")
    assert lint_paths([str(target)]) == []
    old, new, expected = SPEC_SEEDS[seed]
    assert source.count(old) == 1, old
    target.write_text(source.replace(old, new), encoding="utf-8")
    assert reported(lint_paths([str(target)])) == [expected]


def test_set_iteration_flagged_sorted_not():
    assert "DET-ORDER" in rule_ids(
        "def f(xs):\n    for x in set(xs):\n        pass\n"
    )
    assert (
        rule_ids("def f(xs):\n    for x in sorted(set(xs)):\n        pass\n")
        == []
    )


def test_listdir_flagged_unless_sorted():
    assert "DET-ORDER" in rule_ids(
        "import os\ndef f(p):\n    return [x for x in os.listdir(p)]\n"
    )
    assert (
        rule_ids("import os\ndef f(p):\n    return sorted(os.listdir(p))\n")
        == []
    )


# ----------------------------------------------------------------- hygiene


def test_swallowed_exception_flagged_logged_not():
    bad = (
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except Exception:\n"
        "        pass\n"
        "def work():\n"
        "    pass\n"
    )
    assert "HYG-SWALLOW" in rule_ids(bad, "src/repro/art/run.py")
    logged = (
        "def f(log):\n"
        "    try:\n"
        "        work()\n"
        "    except Exception as error:\n"
        "        log.emit('failed', error=str(error))\n"
        "def work():\n"
        "    pass\n"
    )
    assert rule_ids(logged, "src/repro/art/run.py") == []
    narrow = (
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except KeyError:\n"
        "        pass\n"
        "def work():\n"
        "    pass\n"
    )
    assert rule_ids(narrow, "src/repro/art/run.py") == []


def test_bare_except_flagged():
    source = (
        "def f():\n"
        "    try:\n"
        "        pass\n"
        "    except:\n"
        "        pass\n"
    )
    assert "HYG-SWALLOW" in rule_ids(source, "src/repro/db/query.py")


def test_mutable_default_flagged_none_not():
    assert "HYG-MUTABLE-DEFAULT" in rule_ids(
        "def f(x=[]):\n    return x\n", "src/repro/db/query.py"
    )
    assert "HYG-MUTABLE-DEFAULT" in rule_ids(
        "def f(*, x={}):\n    return x\n", "src/repro/db/query.py"
    )
    assert (
        rule_ids("def f(x=None):\n    return x\n", "src/repro/db/query.py")
        == []
    )


def test_metric_name_conventions():
    bad_case = (
        "from repro.telemetry import get_metrics\n"
        "def f():\n"
        "    get_metrics().counter('BadName').inc()\n"
    )
    assert "HYG-METRIC-NAME" in rule_ids(
        bad_case, "src/repro/scheduler/fixture.py"
    )
    bad_counter = (
        "from repro.telemetry import get_metrics\n"
        "def f():\n"
        "    get_metrics().counter('jobs_done').inc()\n"
    )
    assert "HYG-METRIC-NAME" in rule_ids(
        bad_counter, "src/repro/scheduler/fixture.py"
    )
    good = (
        "from repro.telemetry import get_metrics\n"
        "def f():\n"
        "    get_metrics().counter('jobs_done_total').inc()\n"
        "    get_metrics().gauge('queue_depth').set(1)\n"
    )
    assert rule_ids(good, "src/repro/scheduler/fixture.py") == []
