"""Environment metadata stamped into every ``BENCH_*.json`` report.

Benchmark numbers are only comparable between runs that saw similar iron:
a 1-core container and an 8-core CI runner produce legitimately different
throughput, and the multiproc serving benchmark scales with ``cpu_count``
outright.  Every bench writer merges :func:`bench_environment` into its
report so a reader (or a later PR diffing the trend) can tell whether a
regression is code or hardware.
"""

from __future__ import annotations

import os
import platform
from typing import Dict

import numpy as np


def bench_environment(**extra: object) -> Dict[str, object]:
    """The environment fields every benchmark report carries.

    Returns plain JSON-serializable values: ``python`` (interpreter
    version), ``platform`` (e.g. ``Linux-6.18``-style), ``machine``
    (architecture), ``cpu_count`` (``os.cpu_count()``, ``None`` when the
    platform cannot say), and ``numpy`` (version string).  Keyword
    arguments are merged in — the scenario benchmark stamps its replay
    ``seed`` this way so the report records everything needed to
    reproduce it.
    """
    environment: Dict[str, object] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
    }
    environment.update(extra)
    return environment
