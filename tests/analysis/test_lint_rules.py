"""Per-rule tests: every rule in the pack has a positive case (the bug
is caught) and a negative case (the sanctioned pattern is not)."""

from tests.analysis.helpers import lint_source


def rule_ids(source, path="src/repro/sim/fixture.py"):
    return [f.rule_id for f in lint_source(source, path)]


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


def test_determinism_rules_only_apply_in_zones():
    source = "import time\ndef f():\n    return time.time()\n"
    assert "DET-WALLCLOCK" in rule_ids(
        source, "src/repro/chaos/fixture.py"
    )
    assert "DET-WALLCLOCK" in rule_ids(
        source, "src/repro/art/artifact.py"
    )
    # The scheduler measures real time legitimately (timeouts, round trips).
    assert rule_ids(source, "src/repro/scheduler/fixture.py") == []


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


# ------------------------------------------------------------- concurrency

SCHED = "src/repro/scheduler/fixture.py"


def test_bare_acquire_flagged_with_statement_not():
    source = (
        "import threading\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def bad(self):\n"
        "        self._lock.acquire()\n"
        "    def good(self):\n"
        "        with self._lock:\n"
        "            pass\n"
    )
    ids = rule_ids(source, SCHED)
    assert ids.count("CON-BARE-ACQUIRE") == 1


def test_sleep_under_lock_flagged():
    source = (
        "import threading\n"
        "import time\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def bad(self):\n"
        "        with self._lock:\n"
        "            time.sleep(1)\n"
    )
    assert "CON-HOLD-BLOCKING" in rule_ids(source, SCHED)


def test_condition_wait_on_held_lock_is_exempt():
    source = (
        "import threading\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self._idle = threading.Condition()\n"
        "    def drain(self):\n"
        "        with self._idle:\n"
        "            self._idle.wait_for(lambda: True, timeout=1)\n"
    )
    assert rule_ids(source, SCHED) == []


def test_join_under_inferred_lock_attribute_flagged():
    """Lock attributes are inferred from __init__ even when the name
    has no 'lock' in it."""
    source = (
        "import threading\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self._idle = threading.Condition()\n"
        "    def bad(self, worker):\n"
        "        with self._idle:\n"
        "            worker.join()\n"
    )
    assert "CON-HOLD-BLOCKING" in rule_ids(source, SCHED)


def test_nested_def_under_with_is_not_held(tmp_path):
    """Code inside a nested def does not run while the outer with is
    held; it must not be flagged."""
    source = (
        "import threading\n"
        "import time\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def spawn(self):\n"
        "        with self._lock:\n"
        "            def runner():\n"
        "                time.sleep(1)\n"
        "            return runner\n"
    )
    assert rule_ids(source, SCHED) == []


def test_callback_under_lock_flagged():
    source = (
        "import threading\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def bad(self, job):\n"
        "        with self._lock:\n"
        "            job.run_callback()\n"
    )
    assert "CON-HOLD-BLOCKING" in rule_ids(source, SCHED)


def test_lock_per_call_direct_and_local():
    direct = (
        "import threading\n"
        "def f():\n"
        "    with threading.Lock():\n"
        "        pass\n"
    )
    assert "CON-LOCK-PER-CALL" in rule_ids(direct, SCHED)
    local = (
        "import threading\n"
        "def f():\n"
        "    guard = threading.Lock()\n"
        "    with guard:\n"
        "        pass\n"
    )
    assert "CON-LOCK-PER-CALL" in rule_ids(local, SCHED)
    in_init = (
        "import threading\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
    )
    assert rule_ids(in_init, SCHED) == []


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
