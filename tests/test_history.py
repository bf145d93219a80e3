from benchmarks.history.check import problems


def test_the_benchmark_history_is_consistent():
    assert problems() == []
