"""Tests for id generation, RNG streams and unit conversion."""

import pytest

from repro.common.ids import new_uuid
from repro.common.rng import RngStream, derive_seed
from repro.common.units import GHz


def test_new_uuid_unique():
    assert new_uuid() != new_uuid()


def test_derive_seed_depends_on_names():
    assert derive_seed(1, "x") != derive_seed(1, "y")
    assert derive_seed(1, "x") != derive_seed(2, "x")


def test_rng_stream_reproducible():
    one = RngStream(42, "cache")
    two = RngStream(42, "cache")
    assert [one.random() for _ in range(5)] == [
        two.random() for _ in range(5)
    ]


def test_rng_streams_independent():
    root = RngStream(42, "root")
    # Drawing from one stream must not perturb a freshly derived child.
    child_before = root.child("sub").random()
    root2 = RngStream(42, "root")
    root2.random()
    child_after = root2.child("sub").random()
    assert child_before == child_after


def test_rng_uniform_bounds():
    stream = RngStream(7, "u")
    for _ in range(100):
        value = stream.uniform(2.0, 3.0)
        assert 2.0 <= value <= 3.0


def test_ghz_period():
    assert GHz(1) == 1000  # 1 GHz -> 1000 ticks (1 ns) per cycle
    assert GHz(2) == 500


def test_ghz_rejects_nonpositive():
    with pytest.raises(ValueError):
        GHz(0)
