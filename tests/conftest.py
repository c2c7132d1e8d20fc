"""Test-wide settings: property tests repeat exactly and write no ``.hypothesis/``."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("kernelglue", derandomize=True, database=None, deadline=None)
settings.load_profile("kernelglue")

# hypothesis also caches the constants it reads from source files; keep
# that cache in a directory removed when the test run exits
_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_home.name)
