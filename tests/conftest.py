import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches the constants it reads from source files under its home
# directory, ``.hypothesis/`` of the working directory by default, and does so
# while tests are collected; keep that cache out of the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "rftag-hypothesis")

# One profile for every property test: the same examples on every run, no
# example database carried between runs, and no per-example deadline on a
# shared host.  A test file sets only how many examples it draws.
settings.register_profile("rftag", derandomize=True, database=None, deadline=None)
settings.load_profile("rftag")
