"""``repro resources``, ``repro selftest`` and ``repro rate``: the
gem5-resources catalog (Table I), the gem5-tests resource run against a
build, and SPECrate scaling of the SPEC resources in SE mode."""

from __future__ import annotations

from repro.common import TextTable


def _resources_arguments(parser) -> None:
    parser.add_argument("--gem5-version", default="20.1.0.4")


def _selftest_arguments(parser) -> None:
    parser.add_argument("--isa", default="X86")
    parser.add_argument("--version", default="20.1.0.4")


def _rate_arguments(parser) -> None:
    parser.add_argument("--suite", default="spec-2017",
                        choices=("spec-2006", "spec-2017"))
    parser.add_argument("--benchmarks", nargs="+", default=None)


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


def _cmd_rate(args) -> int:
    from repro.sim import Gem5Build, Gem5Simulator, SystemConfig
    from repro.sim.workload import get_workload, suite_apps

    benchmarks = args.benchmarks or list(suite_apps(args.suite))[:6]
    unknown = set(benchmarks) - set(suite_apps(args.suite))
    if unknown:
        print(f"unknown {args.suite} benchmarks: {sorted(unknown)}")
        return 2
    table = TextTable(
        ["Benchmark", "rate@1", "rate@8", "Scaling"],
        title=f"SPECrate scaling ({args.suite}, O3, DDR3 x1)",
    )
    for name in benchmarks:
        workload = get_workload(args.suite, name, "test")
        rates = {}
        for copies in (1, 8):
            simulator = Gem5Simulator(
                Gem5Build(),
                SystemConfig(
                    cpu_type="o3",
                    num_cpus=8,
                    memory_system="MESI_Two_Level",
                ),
            )
            result = simulator.run_se_rate(workload, copies=copies)
            rates[copies] = result.stats["rate"]
        table.add_row(
            [name, f"{rates[1]:.1f}", f"{rates[8]:.1f}",
             f"{rates[8] / rates[1]:.2f}x"]
        )
    print(table.render())
    return 0


VERBS = {
    "resources": (_resources_arguments, _cmd_resources),
    "selftest": (_selftest_arguments, _cmd_selftest),
    "rate": (_rate_arguments, _cmd_rate),
}
