import tempfile
from pathlib import Path

from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches the constants it reads from source files under its home
# directory, ``.hypothesis/`` of the working directory by default, and does so
# while tests are collected; keep that cache out of the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "rftag-hypothesis")
