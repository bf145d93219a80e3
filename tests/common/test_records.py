"""Every record keeps the ``@dataclass`` contract ``records.py`` writes once.

Each ``Record``/``Frozen`` subclass a ``pkgutil`` walk of ``repro`` finds
(an ``ast`` scan of ``src/repro`` must agree) is built without
``__init__``, its fields drawn by Hypothesis, and held to that contract.
Its guard: ``benchmarks/mutation/run.py src/repro/common/records.py
tests/common/test_records.py -x -q`` leaves only listed survivors.
"""

import ast
import copy
import importlib
import inspect
import pickle
import pkgutil
from collections.abc import Hashable
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.art.run import Gem5Run
from repro.art.spec import RunSpec
from repro.common.errors import ValidationError
from repro.common.records import Frozen, Record
from repro.sim.checkpoint import Checkpoint
from repro.sim.workload.phases import Phase


def _walked():
    modules = [importlib.import_module(info.name) for info in
               pkgutil.walk_packages(repro.__path__, "repro.")
               if info.name != "repro.__main__"]  # that one runs the CLI
    return {f"{module.__name__}.{value.__qualname__}": value
            for module in modules for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, Record)
            and value.__module__ == module.__name__
            and value not in (Record, Frozen)}


def _scanned():
    """Every class in ``src/repro`` whose bases name ``Record``/``Frozen``."""
    src, found = Path(repro.__file__).parent, set()
    for path in src.rglob("*.py"):
        module = ".".join(path.relative_to(src.parent).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text())):
            bases = {getattr(base, "id", getattr(base, "attr", None))
                     for base in getattr(node, "bases", ())}
            if isinstance(node, ast.ClassDef) and bases & {"Record", "Frozen"}:
                found.add(f"{module.removesuffix('.__init__')}.{node.name}")
    return found - {"repro.common.records.Frozen"}


RECORDS = _walked()
by_class = pytest.mark.parametrize(
    "cls", RECORDS.values(), ids=lambda cls: cls.__qualname__)

HASHABLE = [None, False, 0, 1, 2.5, "", "a", (), (1, "a")]
VALUES = HASHABLE + [[], [1, "a"], {}, {"a": (1,)}]  # never mutated


def contract(test):
    """Per class, a twentieth of the profile's examples (5, or 100: ci)."""
    runs = settings(max_examples=max(1, settings().max_examples // 20))
    return by_class(runs(given(data=st.data())(test)))


def fields(cls, pool=VALUES):
    return st.tuples(*[st.sampled_from(pool)] * len(cls._fields)).map(list)


def build(cls, values):
    record = cls.__new__(cls)
    vars(record).update(zip(cls._fields, values))
    return record


def test_every_dataclass_has_a_case():
    assert RECORDS and set(RECORDS) == _scanned()


@by_class
def test_fields_and_kind_match_the_dataclass(cls):
    """``__init__`` takes the leading fields, in order; a frozen
    record's takes them all, since ``replace`` passes each one back."""
    assert len(set(cls._fields)) == len(cls._fields)
    assert set(cls._unshown) <= set(cls._fields)
    params = tuple(inspect.signature(cls.__init__).parameters)[1:]
    assert params == cls._fields[:len(params)]
    assert params == cls._fields or not issubclass(cls, Frozen)


@contract
def test_equality_agrees_with_the_dataclass(cls, data):
    values, others = data.draw(fields(cls)), data.draw(fields(cls))
    record = build(cls, values)
    assert record == build(cls, copy.deepcopy(values))
    assert (record == build(cls, others)) is (values == others)
    assert (record != build(cls, others)) is (values != others)
    subclass = build(type(cls.__name__, (cls,), {}), values)
    assert record != subclass and subclass != record
    assert record != tuple(values)
    assert record == mock.ANY and not record != mock.ANY  # NotImplemented


@contract
def test_hash_agrees_with_the_dataclass(cls, data):
    values = data.draw(fields(cls, HASHABLE))
    if not issubclass(cls, Frozen):  # so ``hash`` raises TypeError
        assert not isinstance(build(cls, values), Hashable)
        return
    assert hash(build(cls, values)) == hash(build(cls, copy.deepcopy(values)))
    values[data.draw(st.integers(0, len(values) - 1))] = {}
    with pytest.raises(TypeError):
        hash(build(cls, values))


@contract
def test_repr_agrees_with_the_dataclass(cls, data):
    values = data.draw(fields(cls))
    shown = ", ".join(f"{name}={value!r}" for name, value in
                      zip(cls._fields, values) if name not in cls._unshown)
    assert repr(build(cls, values)) == f"{cls.__qualname__}({shown})"


@contract
def test_frozen_records_refuse_assignment(cls, data):
    values, value = data.draw(fields(cls)), data.draw(st.sampled_from(VALUES))
    index = data.draw(st.integers(0, len(values) - 1))
    record, name = build(cls, values), cls._fields[index]
    if issubclass(cls, Frozen):
        for change in (lambda: setattr(record, name, value),
                       lambda: delattr(record, name),
                       lambda: setattr(record, "not_a_field", value)):
            with pytest.raises(AttributeError):
                change()
    else:
        setattr(record, name, value)
        values[index] = value
    assert record == build(cls, values)


@contract
def test_pickle_and_deepcopy_round_trip(cls, data):
    record = build(cls, data.draw(fields(cls)))
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert (type(twin), twin, repr(twin)) == (cls, record, repr(record))


def test_gem5_run_repr_leaves_out_db_and_spec():
    record = Gem5Run(run_id="r", kind="fs", artifacts={}, params={},
                     timeout=60.0, db="db", spec="spec", fingerprint="fp")
    assert "db=" not in repr(record) and "spec=" not in repr(record)
    assert repr(record).startswith("Gem5Run(run_id='r', kind='fs', ")


def test_run_spec_is_unhashable_like_the_dataclass():
    with pytest.raises(TypeError):
        hash(RunSpec(kind="fs", artifacts={"gem5": "h1"}))


def test_a_checkpoint_stays_equal_once_its_id_is_read():
    fields = dict(kernel_version="4.19.83", boot_type="systemd",
                  disk_image_hash="d", num_cpus=2, memory_system="classic",
                  boot_seconds=1.5, boot_instructions=100)
    read, fresh = Checkpoint(**fields), Checkpoint(**fields)
    before = hash(read)
    assert read.checkpoint_id == fresh.checkpoint_id
    assert "checkpoint_id" in vars(read) and "checkpoint_id" not in repr(read)
    assert read == fresh and hash(read) == before == hash(fresh)
    for copied in (pickle.loads(pickle.dumps(read)), copy.deepcopy(read)):
        assert copied == fresh and copied.checkpoint_id == read.checkpoint_id


def test_replace_builds_a_checked_copy_like_dataclasses_replace():
    record = Phase(name="p", instructions=100, parallelism=4, locality=0.5)
    assert record.replace(instructions=7, parallelism=2) == Phase(
        name="p", instructions=7, parallelism=2, locality=0.5)
    assert record.instructions == 100  # the original is untouched
    with pytest.raises(ValidationError):
        record.replace(parallelism=0)
