"""Paths of the checkout; importing this puts its ``src/`` first on the path.

The benchmark must measure the checkout it sits in, so an installed
``trajcalc`` elsewhere is refused.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"

sys.path.insert(0, str(SRC))

import trajcalc  # noqa: E402

if not Path(trajcalc.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: trajcalc was imported from {trajcalc.__file__}, not from {SRC}")
