"""``repro resources`` and ``repro selftest``: the gem5-resources
catalog (Table I) and the gem5-tests resource run against a build."""

from __future__ import annotations

from repro.common import TextTable


def _resources_arguments(parser) -> None:
    parser.add_argument("--gem5-version", default="20.1.0.4")


def _selftest_arguments(parser) -> None:
    parser.add_argument("--isa", default="X86")
    parser.add_argument("--version", default="20.1.0.4")


def _cmd_resources(args) -> int:
    from repro.resources import list_resources, status_matrix

    matrix = status_matrix(args.gem5_version)
    table = TextTable(
        ["Name", "Type", f"Status (gem5 {args.gem5_version})"],
        title="GEM5 RESOURCES",
    )
    for resource in list_resources():
        table.add_row([resource.name, resource.rtype, matrix[resource.name]])
    print(table.render())
    return 0


def _cmd_selftest(args) -> int:
    from repro.sim import Gem5Build
    from repro.resources.selftest import run_test_suite

    build = Gem5Build(version=args.version, isa=args.isa)
    outcomes = run_test_suite(build)
    table = TextTable(
        ["Test", "Status", "Detail"],
        title=f"gem5 tests on {build.binary_name}",
    )
    failed = 0
    for outcome in outcomes:
        table.add_row([outcome.test_name, outcome.status, outcome.detail])
        if outcome.status == "fail":
            failed += 1
    print(table.render())
    return 1 if failed else 0


VERBS = {
    "resources": (_resources_arguments, _cmd_resources),
    "selftest": (_selftest_arguments, _cmd_selftest),
}
