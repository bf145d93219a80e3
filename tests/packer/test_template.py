"""Tests for Packer template validation and serialization."""

import pytest

from repro.common.errors import ValidationError
from repro.packer import Template


def make_builder(**overrides):
    builder = {
        "type": "ubuntu",
        "distro": "ubuntu-18.04",
        "image_name": "test-image",
    }
    builder.update(overrides)
    return builder


def test_minimal_template():
    template = Template(builder=make_builder())
    assert template.provisioners == []


def test_unknown_builder_type():
    with pytest.raises(ValidationError):
        Template(builder=make_builder(type="vmware"))


def test_builder_requires_distro_and_name():
    with pytest.raises(ValidationError):
        Template(builder={"type": "ubuntu", "image_name": "x"})
    with pytest.raises(ValidationError):
        Template(builder={"type": "ubuntu", "distro": "ubuntu-18.04"})


def test_iso_builder_requires_media():
    with pytest.raises(ValidationError) as excinfo:
        Template(builder=make_builder(type="ubuntu-iso"))
    assert "iso" in str(excinfo.value).lower()
    Template(builder=make_builder(type="ubuntu-iso", iso_path="/tmp/u.iso"))


def test_provisioner_validation():
    with pytest.raises(ValidationError):
        Template(builder=make_builder(), provisioners=[{"type": "ansible"}])
    with pytest.raises(ValidationError):
        Template(
            builder=make_builder(),
            provisioners=[{"type": "file", "destination": "/x"}],
        )
    with pytest.raises(ValidationError):
        Template(builder=make_builder(), provisioners=[{"type": "shell"}])


def test_canonical_json_stable():
    one = Template(builder=make_builder()).canonical_json()
    two = Template(builder=make_builder()).canonical_json()
    assert one == two
