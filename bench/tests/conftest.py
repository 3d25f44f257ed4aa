"""Make the benchmark's modules importable by their file names.

Run these tests with ``python3 -m pytest bench/tests`` from the root of a
checkout; the repository's own test suite does not collect them.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))
# bench/trace.py shares its name with a standard-library module.
loaded = sys.modules.get("trace")
if loaded is not None and not str(getattr(loaded, "__file__", "")).startswith(str(BENCH)):
    del sys.modules["trace"]
