"""Print the seconds a fresh interpreter spends on ``import dispmodels``
plus building one workload's model objects.

    PYTHONPATH=src python3 benchmarks/setup_probe.py glm
"""

import time

_start = time.perf_counter()

import sys  # noqa: E402

import dispmodels  # noqa: E402,F401
from models import build_models  # noqa: E402

build_models(sys.argv[1])
print(repr(time.perf_counter() - _start))
