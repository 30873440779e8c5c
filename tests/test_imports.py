"""Import footprint of the package."""

import os
import subprocess
import sys

import dispmodels


def test_import_leaves_slow_scipy_modules_unloaded():
    # scipy.stats and scipy.signal are slow to import and needed by no
    # import-time code: pdm loads scipy.stats only inside its pivotal check
    code = (
        "import sys, dispmodels; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['scipy', 'stats'], ['scipy', 'signal'])))"
    )
    src = os.path.dirname(os.path.dirname(dispmodels.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"
