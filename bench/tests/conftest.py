"""Make the benchmark's modules and the program under test importable.

The benchmark's tests run with ``pytest bench/tests``; they are not part
of the tier-1 run (``testpaths`` in pyproject.toml stays ``tests``).
"""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
