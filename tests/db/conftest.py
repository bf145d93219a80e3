"""Suite-wide hypothesis profiles (``--hypothesis-profile NAME``)."""

from hypothesis import settings

#: CI's ``db`` job runs the storage-engine model under this one.
settings.register_profile("ci", max_examples=2000, deadline=None)
