"""Make the in-tree ``repro`` package importable from a plain checkout.

The perf scripts run from the repository root with no install step and
no ``PYTHONPATH``; importing this module puts ``src/`` first on
``sys.path``.  Child processes get the same through
:func:`common.child_env`.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
