"""Packer template representation and validation."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.common.errors import ValidationError
from repro.common.jsonutil import canonical_dumps

#: Builder types understood by the build pipeline.
BUILDER_TYPES = ("ubuntu", "ubuntu-iso")

#: Provisioner types understood by the build pipeline.
PROVISIONER_TYPES = ("file", "shell", "preseed")


class Template:
    """A validated disk-image recipe.

    ``builder`` example::

        {"type": "ubuntu", "distro": "ubuntu-18.04", "image_name": "parsec"}

    ``provisioners`` example::

        [{"type": "preseed", "hostname": "gem5"},
         {"type": "file", "destination": "/home/gem5/run.sh",
          "content": "...", "executable": True},
         {"type": "shell", "inline": ["install-package parsec-deps",
                                      "build-benchmark parsec ferret"]}]
    """

    def __init__(
        self,
        builder: Dict[str, Any],
        provisioners: Optional[List[Dict[str, Any]]] = None,
    ):
        self.builder = dict(builder)
        self.provisioners = [dict(p) for p in (provisioners or [])]
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ValidationError` on any malformed section."""
        builder_type = self.builder.get("type")
        if builder_type not in BUILDER_TYPES:
            raise ValidationError(
                f"unknown builder type {builder_type!r}; "
                f"expected one of {BUILDER_TYPES}"
            )
        if "distro" not in self.builder:
            raise ValidationError("builder needs a 'distro' key")
        if "image_name" not in self.builder:
            raise ValidationError("builder needs an 'image_name' key")
        if builder_type == "ubuntu-iso" and "iso_path" not in self.builder:
            raise ValidationError(
                "ubuntu-iso builder needs 'iso_path' (licensed media is "
                "never distributed; the user must supply their own .iso)"
            )
        for index, provisioner in enumerate(self.provisioners):
            kind = provisioner.get("type")
            if kind not in PROVISIONER_TYPES:
                raise ValidationError(
                    f"provisioner #{index}: unknown type {kind!r}"
                )
            if kind == "file":
                if "destination" not in provisioner:
                    raise ValidationError(
                        f"provisioner #{index}: file needs 'destination'"
                    )
                if "content" not in provisioner:
                    raise ValidationError(
                        f"provisioner #{index}: file needs 'content'"
                    )
            if kind == "shell" and "inline" not in provisioner:
                raise ValidationError(
                    f"provisioner #{index}: shell needs 'inline' commands"
                )

    # ------------------------------------------------------ serialization

    def to_dict(self) -> Dict[str, Any]:
        return {
            "builder": self.builder,
            "provisioners": self.provisioners,
            # No template sets any, but the key is part of the template
            # hash stamped into every image built so far.
            "variables": {},
        }

    def canonical_json(self) -> str:
        return canonical_dumps(self.to_dict())
