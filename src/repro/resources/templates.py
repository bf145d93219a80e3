"""Packer templates for the disk-image resources.

gem5-resources provides, for every disk image, "the corresponding Packer
script, a Ubuntu preseed configuration, a benchmark installation script and
other resources required for building".  These builders produce exactly
that: a validated :class:`~repro.packer.Template` per (resource, distro),
ready for :func:`repro.packer.build`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.packer.template import Template

#: Benchmark suite contents used to generate install scripts.
NPB_APPS = ("bt", "cg", "ep", "ft", "is", "lu", "mg", "sp")
GAPBS_APPS = ("bc", "bfs", "cc", "pr", "sssp", "tc")


def _base_builder(image_name: str, distro: str) -> dict:
    return {"type": "ubuntu", "distro": distro, "image_name": image_name}


def _suite_template(
    suite: str,
    apps: Sequence[str],
    distro: str,
    extra_packages: Sequence[str] = (),
    run_script: Optional[str] = None,
) -> Template:
    inline = [f"mkdir -p /home/gem5/{suite}"]
    inline += [f"install-package {package}" for package in extra_packages]
    inline += [f"build-benchmark {suite} {app}" for app in apps]
    provisioners = [
        {"type": "preseed", "hostname": f"{suite}-guest"},
        {"type": "shell", "inline": inline},
    ]
    if run_script is not None:
        provisioners.append(
            {
                "type": "file",
                "destination": f"/home/gem5/{suite}/runscript.sh",
                "content": run_script,
                "executable": True,
            }
        )
    return Template(
        builder=_base_builder(f"{suite}-{distro}", distro),
        provisioners=provisioners,
    )


def parsec_template(distro: str = "ubuntu-18.04") -> Template:
    """The PARSEC disk image used by use-case 1 (all 13 apps installed;
    the broken three fail at run time like the real suite)."""
    from repro.sim.workload.parsec import PARSEC_APPS

    return _suite_template(
        "parsec",
        sorted(PARSEC_APPS),
        distro,
        extra_packages=("parsec-deps", "libx11-dev"),
        run_script=(
            "#!/bin/sh\n"
            "# parsecmgmt -a run -p $1 -i $2 -n $3\n"
            "/home/gem5/parsec/$1 --input $2 --threads $3\n"
        ),
    )


def npb_template(distro: str = "ubuntu-18.04") -> Template:
    return _suite_template(
        "npb",
        NPB_APPS,
        distro,
        extra_packages=("gfortran",),
        run_script="#!/bin/sh\n/home/gem5/npb/$1.$2.x\n",
    )


def gapbs_template(distro: str = "ubuntu-18.04") -> Template:
    return _suite_template(
        "gapbs",
        GAPBS_APPS,
        distro,
        run_script="#!/bin/sh\n/home/gem5/gapbs/$1 -g $2 -n $3\n",
    )


def boot_exit_template(distro: str = "ubuntu-18.04") -> Template:
    """The boot-exit image: boots, prints, and exits via the m5 op."""
    return Template(
        builder=_base_builder(f"boot-exit-{distro}", distro),
        provisioners=[
            {"type": "preseed", "hostname": "boot-exit-guest"},
            {
                "type": "file",
                "destination": "/home/gem5/exit.sh",
                "content": "#!/bin/sh\nm5 exit\n",
                "executable": True,
            },
        ],
    )


def hack_back_template(distro: str = "ubuntu-18.04") -> Template:
    """The hack-back image: checkpoint after boot, then run a host
    script (the hack-back trick)."""
    return Template(
        builder=_base_builder(f"hack-back-{distro}", distro),
        provisioners=[
            {"type": "preseed", "hostname": "hack-back-guest"},
            {
                "type": "file",
                "destination": "/home/gem5/hack_back_ckpt.rcS",
                "content": (
                    "#!/bin/sh\n"
                    "m5 checkpoint\n"
                    "m5 readfile > /tmp/host-script.sh\n"
                    "sh /tmp/host-script.sh\n"
                ),
                "executable": True,
            },
        ],
    )


def spec_template(
    spec_version: str, iso_path: Optional[str], distro: str = "ubuntu-18.04"
) -> Template:
    """SPEC CPU templates require user-supplied licensed media.

    Raises at validation time when ``iso_path`` is missing — this is the
    licensing rule the paper describes (scripts are distributed, media and
    pre-built images are not).
    """
    from repro.sim.workload.spec import SPEC_BENCHMARKS

    builder = {
        "type": "ubuntu-iso",
        "distro": distro,
        "image_name": f"spec-{spec_version}-{distro}",
    }
    if iso_path is not None:
        builder["iso_path"] = iso_path
    suite = f"spec-{spec_version}"
    install = [
        f"mkdir -p /home/gem5/{suite}",
        "install-package build-essential",
    ]
    install += [
        f"build-benchmark {suite} {name}"
        for name in sorted(SPEC_BENCHMARKS[suite])
    ]
    return Template(
        builder=builder,
        provisioners=[
            {"type": "preseed", "hostname": f"spec{spec_version}-guest"},
            {"type": "shell", "inline": install},
        ],
    )
