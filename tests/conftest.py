"""Test-suite settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run, and a slow example
# on a loaded machine is not a failure.
settings.register_profile("chfkit", derandomize=True, deadline=None)
settings.load_profile("chfkit")
