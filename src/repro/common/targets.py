"""``"package.module:attr"`` targets: the one place a dotted path that
names a function as data — in a pool envelope, a manifest's python
stage, a callable gate — becomes the object."""

import importlib
from typing import Any

from repro.common.errors import ValidationError


def resolve_target(target: str) -> Any:
    """Import ``"package.module:qualname"`` (``"pkg.mod:Class.method"``
    walks attributes); a target that cannot be resolved is a
    :class:`ValidationError` naming it."""
    module_name, _, qualname = str(target).partition(":")
    try:
        if not module_name or not qualname:
            raise ImportError("expected a 'package.module:attr' path")
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as error:
        raise ValidationError(
            f"target {target!r} cannot be resolved: {error}"
        ) from error
    return obj
