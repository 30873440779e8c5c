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


def test_p_above_two_evaluation_leaves_mpmath_unloaded():
    # the p > 2 density and cdf are float series and Fourier inversions;
    # (2.5, 0.12, 1, 0.25) is a point where the series cancels
    code = (
        "import sys; from dispmodels.tweedie import tweedie_cdf, tweedie_density; "
        "tweedie_density(2.5, 0.12, 1.0, 0.25); tweedie_cdf(3.5, 1.0, 0.7, 0.25); "
        "print('mpmath' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(dispmodels.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"
