"""Tests for the packer build pipeline and provisioners."""

import pytest

from repro.common.errors import ValidationError
from repro.packer import Template, build
from repro.packer.provisioners import build_benchmark
from repro.vfs import DiskImage


def parsec_template(distro="ubuntu-18.04"):
    return Template(
        builder={
            "type": "ubuntu",
            "distro": distro,
            "image_name": f"parsec-{distro}",
        },
        provisioners=[
            {"type": "preseed", "hostname": "parsec-host"},
            {
                "type": "file",
                "destination": "/home/gem5/runscript.sh",
                "content": "#!/bin/sh\nparsecmgmt -a run\n",
                "executable": True,
            },
            {
                "type": "shell",
                "inline": [
                    "mkdir -p /home/gem5/parsec",
                    "install-package parsec-deps",
                    "build-benchmark parsec ferret",
                    "echo done > /home/gem5/README",
                ],
            },
        ],
    )


def test_base_image_userland():
    result = build(Template(builder={
        "type": "ubuntu", "distro": "ubuntu-20.04", "image_name": "base",
    }))
    image = result.image
    assert "VERSION_ID=20.04" in image.read_text("/etc/os-release")
    assert dict(image.walk())["/sbin/init"].executable
    assert dict(image.walk())["/usr/bin/gcc"].executable
    assert image.metadata["kernel"] == "5.4.51"
    assert image.metadata["compiler"] == "gcc-9.3"


def test_full_build_log_and_files():
    result = build(parsec_template())
    image = result.image
    assert dict(image.walk())["/home/gem5/runscript.sh"].executable
    assert image.read_text("/home/gem5/README") == "done\n"
    assert image.exists("/preseed.cfg")
    assert image.metadata["preseed"]["hostname"] == "parsec-host"
    assert "parsec-deps" in image.metadata["packages"]
    assert {"suite": "parsec", "app": "ferret", "compiler": "gcc-7.4"} in (
        image.metadata["benchmarks"]
    )
    assert any("build-benchmark" in line for line in result.log)
    assert "packer_template_hash" in image.metadata


def test_build_deterministic():
    assert build(parsec_template()).image_hash == (
        build(parsec_template()).image_hash
    )


def test_distro_changes_image_hash():
    bionic = build(parsec_template("ubuntu-18.04"))
    focal = build(parsec_template("ubuntu-20.04"))
    assert bionic.image_hash != focal.image_hash
    # The same benchmark binary differs because the toolchain differs.
    assert bionic.image.read_file("/home/gem5/parsec/ferret") != (
        focal.image.read_file("/home/gem5/parsec/ferret")
    )


def test_benchmark_recorded_with_image_compiler():
    focal = build(parsec_template("ubuntu-20.04")).image
    assert focal.metadata["benchmarks"][0]["compiler"] == "gcc-9.3"


def test_shell_mkdir_chmod():
    template = Template(
        builder={
            "type": "ubuntu",
            "distro": "ubuntu-18.04",
            "image_name": "x",
        },
        provisioners=[
            {
                "type": "file",
                "destination": "/opt/tool",
                "content": "binary",
            },
            {"type": "shell", "inline": ["chmod +x /opt/tool"]},
        ],
    )
    image = build(template).image
    assert dict(image.walk())["/opt/tool"].executable


def test_shell_unknown_command():
    template = Template(
        builder={
            "type": "ubuntu",
            "distro": "ubuntu-18.04",
            "image_name": "x",
        },
        provisioners=[{"type": "shell", "inline": ["rm -rf /"]}],
    )
    with pytest.raises(ValidationError):
        build(template)


def test_shell_bad_echo():
    template = Template(
        builder={
            "type": "ubuntu",
            "distro": "ubuntu-18.04",
            "image_name": "x",
        },
        provisioners=[{"type": "shell", "inline": ["echo no-redirect"]}],
    )
    with pytest.raises(ValidationError):
        build(template)


def test_build_benchmark_requires_provisioned_image():
    bare = DiskImage("bare")
    with pytest.raises(ValidationError):
        build_benchmark(bare, "parsec", "ferret", log=[])


def test_iso_builder_records_media():
    template = Template(
        builder={
            "type": "ubuntu-iso",
            "distro": "ubuntu-18.04",
            "image_name": "spec2017",
            "iso_path": "/licensed/spec2017.iso",
        }
    )
    image = build(template).image
    assert image.metadata["installed_from_iso"] == "/licensed/spec2017.iso"
