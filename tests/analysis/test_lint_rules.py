"""Per-rule tests: every rule in the pack has a positive case (the bug
is caught) and a negative case (the sanctioned pattern is not)."""

import os

import pytest

from repro.analysis import lint_paths
from tests.analysis.helpers import lint_source

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

#: Every call a source rule reports, spelled as it resolves: a name the
#: file does not import resolves to itself (``from uuid import *`` then
#: ``uuid4()``; ``from datetime import *`` then ``datetime.now()``).
SOURCE_CALLS = [
    ("DET-WALLCLOCK", "time.time"),
    ("DET-WALLCLOCK", "time.time_ns"),
    ("DET-WALLCLOCK", "datetime.datetime.now"),
    ("DET-WALLCLOCK", "datetime.datetime.utcnow"),
    ("DET-WALLCLOCK", "datetime.datetime.today"),
    ("DET-WALLCLOCK", "datetime.date.today"),
    ("DET-WALLCLOCK", "datetime.now"),
    ("DET-WALLCLOCK", "datetime.utcnow"),
    ("DET-UUID", "uuid.uuid4"),
    ("DET-UUID", "uuid.uuid1"),
    ("DET-UUID", "uuid4"),
    ("DET-UUID", "uuid1"),
    ("DET-RANDOM", "random.random"),
    ("DET-RANDOM", "random.randint"),
    ("DET-RANDOM", "random.randrange"),
    ("DET-RANDOM", "random.uniform"),
    ("DET-RANDOM", "random.choice"),
    ("DET-RANDOM", "random.choices"),
    ("DET-RANDOM", "random.sample"),
    ("DET-RANDOM", "random.shuffle"),
    ("DET-RANDOM", "random.gauss"),
    ("DET-RANDOM", "random.getrandbits"),
    ("DET-RANDOM", "random.randbytes"),
    ("DET-RANDOM", "random.seed"),
    ("DET-RANDOM", "random.Random"),
    ("DET-RANDOM", "os.urandom"),
    ("DET-RANDOM", "secrets.token_hex"),
    ("DET-RANDOM", "secrets.token_bytes"),
    ("DET-RANDOM", "secrets.token_urlsafe"),
    ("DET-RANDOM", "secrets.randbelow"),
    ("DET-RANDOM", "secrets.randbits"),
    ("DET-RANDOM", "secrets.choice"),
]


def test_acceptance_fixture_all_three_nondeterminism_kinds():
    """time.time(), unseeded random.random() and datetime.now() in a
    sim module are reported; so is every call of ``SOURCE_CALLS``, each
    at its own line, and a seeded ``random.Random`` is not."""
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
    every_call = "".join(f"{name}()\n" for _, name in SOURCE_CALLS)
    seeded = "random.Random(1234)\nrandom.Random(x=1)\n"
    assert reported(lint_source(every_call + seeded)) == [
        (rule, f"{name}()") for rule, name in SOURCE_CALLS
    ]


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
    for path in (
        "src/repro/sim/fixture.py",
        "src/repro/chaos/fixture.py",
        "src/repro/art/artifact.py",
        "src/repro/common/hashing.py",
    ):
        assert rule_ids(order, path) == ["DET-ORDER"], path
    for path in (
        "src/repro/scheduler/fixture.py",
        "src/repro/art/run.py",
        "src/repro/art/artifacts.py",
        "src/repro/common/jsonutil.py",
    ):
        assert rule_ids(order, path) == [], path


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
    for iterable in ("set(xs)", "frozenset(xs)", "{1, 2}", "{x for x in xs}"):
        assert rule_ids(
            f"def f(xs):\n    for x in {iterable}:\n        pass\n"
        ) == ["DET-ORDER"], iterable
    assert (
        rule_ids("def f(xs):\n    for x in sorted(set(xs)):\n        pass\n")
        == []
    )


def test_listdir_flagged_unless_sorted():
    for listing in ("os.listdir", "os.scandir"):
        assert rule_ids(
            f"import os\ndef f(p):\n    return [x for x in {listing}(p)]\n"
        ) == ["DET-ORDER"], listing
    for wrapper in ("sorted", "min", "max", "len", "set"):
        assert rule_ids(
            f"import os\ndef f(p):\n    return {wrapper}(os.listdir(p))\n"
        ) == [], wrapper
