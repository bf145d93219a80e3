"""Template execution: base image + provisioners → finished disk image."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.packer.builders import build_base_image
from repro.packer.provisioners import apply_provisioner
from repro.packer.template import Template


@dataclass
class BuildResult:
    """Output of one packer build."""

    image: "DiskImage"
    log: List[str] = field(default_factory=list)

    @property
    def image_hash(self) -> str:
        return self.image.content_hash()


def build(template: Template) -> BuildResult:
    """Run a template: build the base image, apply each provisioner in
    order, and stamp the template hash into the image for provenance."""
    template.validate()
    log: List[str] = []
    image = build_base_image(template.builder)
    log.append(
        f"builder: {template.builder['type']} -> "
        f"{template.builder['distro']}"
    )
    for provisioner in template.provisioners:
        apply_provisioner(image, provisioner, log)
    image.metadata["packer_template_hash"] = _template_hash(template)
    log.append(f"done: image hash {image.content_hash()}")
    return BuildResult(image=image, log=log)


def _template_hash(template: Template) -> str:
    from repro.common.hashing import md5_text

    return md5_text(template.canonical_json())
