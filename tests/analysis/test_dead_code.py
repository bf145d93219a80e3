"""The two size passes: ``DEAD-REACH`` (no root reaches a definition)
and ``DEAD-PARAM`` (no non-test caller passes a defaulted parameter).

Each fixture is a miniature repository — ``src/repro`` with the entry
module ``repro.cli``, and whichever of ``examples/``, ``benchmarks/``
and ``tests/`` the case needs — linted through the one ``lint_paths``.
Every rule has cases where it fires and, more importantly for a gate
that tells people to delete code, cases where dynamic dispatch must
*not* make it fire.
"""

from repro.analysis import lint_paths
from tests.analysis.helpers import write_tree

ENTRY = {
    "src/repro/__init__.py": "",
    "src/repro/__main__.py": """
        from repro.cli import main

        main()
    """,
}


def lint(root, files):
    """``(rule, what)`` per finding: the definition's qualified name,
    or ``function(parameter=)``."""
    write_tree(root, {**ENTRY, **files})
    found = []
    for finding in lint_paths([str(root / "src" / "repro")]):
        words = finding.message.split(" is ")[0].split()
        what = words[-1]
        if finding.rule_id == "DEAD-PARAM":
            what = f"{what}({words[1]})"
        found.append((finding.rule_id, what))
    return found


# -------------------------------------------------------------- DEAD-REACH


def test_function_only_a_test_calls_is_dead(tmp_path):
    findings = lint(
        tmp_path,
        {
            "src/repro/cli.py": """
                from repro import lib

                def main():
                    return lib.used()
            """,
            "src/repro/lib.py": """
                def used():
                    return _helper()

                def _helper():
                    return 1

                def only_tested():
                    return _only_its_helper()

                def _only_its_helper():
                    return 2
            """,
            "tests/test_lib.py": """
                from repro.lib import only_tested

                def test_it():
                    assert only_tested() == 2
            """,
        },
    )
    assert findings == [
        ("DEAD-REACH", "repro.lib.only_tested"),
        ("DEAD-REACH", "repro.lib._only_its_helper"),
    ]


def test_class_whose_only_reference_is_a_reexport_is_dead(tmp_path):
    """``__all__`` and ``import`` bind names; they call nothing.  A dead
    class is reported once, not once per method."""
    findings = lint(
        tmp_path,
        {
            "src/repro/cli.py": """
                from repro.pkg import Used

                def main():
                    return Used().go()
            """,
            "src/repro/pkg/__init__.py": """
                from repro.pkg.mod import Exported, Used

                __all__ = ["Exported", "Used"]
            """,
            "src/repro/pkg/mod.py": """
                class Used:
                    def go(self):
                        return 1

                    def never(self):
                        return 2

                class Exported:
                    def method(self):
                        return 3
            """,
        },
    )
    assert findings == [
        ("DEAD-REACH", "repro.pkg.mod.Used.never"),
        ("DEAD-REACH", "repro.pkg.mod.Exported"),
    ]


def test_examples_and_benchmarks_are_roots_tests_are_not(tmp_path):
    """A root file keeps alive what it imports, names, or spells in a
    string — a pool target, a row of a patch table."""
    findings = lint(
        tmp_path,
        {
            "src/repro/cli.py": "def main():\n    return 0\n",
            "src/repro/api.py": """
                def for_examples():
                    return 1

                def pool_target(payload):
                    return payload

                class Patched:
                    def traced(self):
                        return 2

                def for_tests_only():
                    return 3
            """,
            "examples/study.py": """
                from repro.api import for_examples

                print(for_examples())
            """,
            "benchmarks/perf/harness.py": """
                TARGETS = (("layer.op", "repro.api", "Patched.traced"),)
                JOB = "repro.api:pool_target"
            """,
            "tests/test_api.py": """
                from repro.api import for_tests_only

                def test_it():
                    assert for_tests_only() == 3
            """,
        },
    )
    assert findings == [("DEAD-REACH", "repro.api.for_tests_only")]


def test_module_nothing_imports_is_dead_whatever_it_names(tmp_path):
    """Module-level statements are roots only where they ever run."""
    findings = lint(
        tmp_path,
        {
            "src/repro/cli.py": """
                def main():
                    return parse("x")

                def parse(text):
                    return text
            """,
            "src/repro/orphan.py": """
                def parse(text):
                    return text.split()

                TABLE = {"parse": parse}
            """,
        },
    )
    assert findings == [("DEAD-REACH", "repro.orphan.parse")]


def test_dynamic_dispatch_never_yields_a_reach_finding(tmp_path):
    findings = lint(
        tmp_path,
        {
            "src/repro/cli.py": """
                import ast

                from repro import plugins
                from repro.plugins import Base, Sub

                def main(argv):
                    plugins.KINDS[argv[0]]()          # registry table
                    plugins.REGISTRY[argv[1]]()       # decorator registry
                    getattr(plugins, "by_getattr")()  # string target
                    run(plugins.as_value)             # escapes as a value
                    Counter().visit(ast.parse(argv[2]))
                    with Sub() as sub:                # dunders of a live class
                        Base.run(sub)                 # reaches Sub.step
                    return len(sub)

                def run(callback):
                    return callback()

                class Counter(ast.NodeVisitor):
                    def visit_Call(self, node):       # ast dispatches visit_*
                        self.generic_visit(node)
            """,
            "src/repro/plugins.py": """
                REGISTRY = {}

                def register(name):
                    def decorate(function):
                        REGISTRY[name] = function
                        return function
                    return decorate

                @register("decorated")
                def decorated():
                    return 1

                def in_table():
                    return 2

                KINDS = {"table": in_table}

                def by_getattr():
                    return 3

                def as_value():
                    return 4

                class Base:
                    def run(self):
                        return self.step()

                    def step(self):
                        raise NotImplementedError

                class Sub(Base):
                    def step(self):
                        return 5

                    def __enter__(self):
                        return self

                    def __exit__(self, *exc):
                        return False

                    def __len__(self):
                        return 0
            """,
        },
    )
    assert findings == []


def test_reach_pragma_keeps_a_definition_and_what_it_calls(tmp_path):
    files = {
        "src/repro/cli.py": "def main():\n    return 0\n",
        "src/repro/tool.py": """
            # dev-tool entry: driven by a CI job
            def entry():  # repro: noqa[DEAD-REACH]
                return _helper()

            def _helper():
                return 1
        """,
    }
    assert lint(tmp_path, files) == []
    files["src/repro/tool.py"] = files["src/repro/tool.py"].replace(
        "  # repro: noqa[DEAD-REACH]", ""
    )
    assert lint(tmp_path, files) == [
        ("DEAD-REACH", "repro.tool.entry"),
        ("DEAD-REACH", "repro.tool._helper"),
    ]


def test_a_tree_without_the_entry_module_is_a_fragment(tmp_path):
    """``repro lint src/repro/sim`` must not call the simulator dead."""
    write_tree(
        tmp_path,
        {"src/repro/sim/model.py": "def step(dt=1):\n    return dt\n"},
    )
    assert lint_paths([str(tmp_path / "src" / "repro" / "sim")]) == []


# -------------------------------------------------------------- DEAD-PARAM


def test_parameter_only_a_test_passes_is_dead(tmp_path):
    findings = lint(
        tmp_path,
        {
            "src/repro/cli.py": """
                from repro.net import Client, fetch

                def main(url):
                    Client(url, 2)
                    return fetch(url, timeout=5)
            """,
            "src/repro/net.py": """
                def fetch(url, retries=3, timeout=10, *, verify=True):
                    return url, retries, timeout, verify

                class Client:
                    def __init__(self, url, pool=1, proxy=None):
                        self.url, self.pool, self.proxy = url, pool, proxy

                def _private(url, knob=1):
                    return url, knob

                fetch_quietly = lambda url: _private(url)
            """,
            "tests/test_net.py": """
                from repro.net import Client, fetch

                def test_it():
                    fetch("u", retries=1, verify=False)
                    Client("u", proxy="p")
            """,
        },
    )
    assert findings == [
        ("DEAD-PARAM", "repro.net.fetch(retries=)"),
        ("DEAD-PARAM", "repro.net.fetch(verify=)"),
        ("DEAD-PARAM", "repro.net.Client.__init__(proxy=)"),
    ]


def test_every_doubt_counts_as_passed(tmp_path):
    findings = lint(
        tmp_path,
        {
            "src/repro/cli.py": """
                from repro import shapes
                from repro.shapes import Base, Sub, Pool, Worker

                def main(options):
                    shapes.forwarded(**options)      # ** passes everything
                    apply(shapes.as_value)           # a value: fully called
                    Sub(1, level=2)                  # inherits Base.__init__
                    Worker.create()                  # cls(...) inside
                    Pool().submit("repro.shapes:job")  # envelope target
                    return Base.method(Sub(1), 1, 2)   # self is explicit

                def apply(function):
                    return function(1, flag=True)
            """,
            "src/repro/shapes.py": """
                def forwarded(a=1, b=2):
                    return a, b

                def as_value(x, flag=False):
                    return x, flag

                def job(payload, repeats=1):
                    return payload, repeats

                class Base:
                    def __init__(self, value, level=0):
                        self.value, self.level = value, level

                    def method(self, first, second=None):
                        return first, second

                class Sub(Base):
                    pass

                class Worker:
                    def __init__(self, name="w", slots=1):
                        self.name, self.slots = name, slots

                    @classmethod
                    def create(cls):
                        return cls("made", slots=4)

                class Pool:
                    def submit(self, target):
                        return target
            """,
        },
    )
    assert findings == []


def test_param_pragma_on_the_parameter_line(tmp_path):
    files = {
        "src/repro/cli.py": """
            from repro.api import task

            def main():
                return task("t")
        """,
        "src/repro/api.py": """
            def task(
                name,
                # paper surface: Celery's @app.task(max_retries=...)
                max_retries=0,  # repro: noqa[DEAD-PARAM]
                timeout=None,
            ):
                return name, max_retries, timeout
        """,
    }
    assert lint(tmp_path, files) == [
        ("DEAD-PARAM", "repro.api.task(timeout=)")
    ]
