"""Import footprint of the package."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import dispmodels


def _fresh(*args: str) -> str:
    """Stdout of a fresh interpreter run with ``args``, the package on its path."""
    src = os.path.dirname(os.path.dirname(dispmodels.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=True, env=env
    ).stdout


# the package integrates with its own rule, so no call imports scipy.integrate or scipy.optimize;
# the sampler inverts its cdf with np.interp, so no call imports scipy.interpolate either
_QUADRATURE_MODULES = ("scipy.integrate", "scipy.interpolate", "scipy.optimize")

# runs the CLI on its arguments, if any, then prints which of the given modules are loaded
_PROBE = (
    "import sys, dispmodels\n"
    "modules, argv = sys.argv[1].split(','), sys.argv[2:]\n"
    "if argv:\n"
    "    from dispmodels.cli import run\n"
    "    assert run(argv) == 0\n"
    "print(sorted({'.'.join(m.split('.')[:2]) for m in sys.modules} & set(modules)))"
)


def _loaded(modules, *argv: str) -> str:
    return _fresh("-c", _PROBE, ",".join(modules), *argv).splitlines()[-1]


def test_import_leaves_slow_scipy_modules_unloaded():
    # no import-time code needs scipy: scipy.special loads on the first special-function call
    assert _loaded(("scipy",)) == "[]"


@pytest.mark.parametrize("argv", [
    ["deviance", "--family", "gamma", "--y", "2", "--mu", "1"],
    ["density", "--family", "gamma", "--y", "1.3", "--mu", "2", "--tau", "0.4"],
    ["approx", "--family", "gamma", "--mu", "2", "--tau", "0.5", "--y", "3", "--method", "lr"],
    ["tweedie", "--p", "1.5", "--mu", "1", "--tau", "1", "--y-min", "0", "--y-max", "3", "--y-step", "0.5"],
    ["cf-construct", "--cf", "gauss", "--tau", "0.5", "--N", "1024"],
    ["check", "--scope", "all"],  # its pivotal checks sample
], ids=lambda argv: argv[0])
def test_cli_without_quadrature_leaves_quadrature_modules_unloaded(argv):
    assert _loaded(_QUADRATURE_MODULES, *argv) == "[]"


def test_cli_fit_leaves_quadrature_modules_unloaded(tmp_path):
    # a Poisson fit calls no special function either, so no scipy module loads at all
    path = tmp_path / "poisson.csv"
    path.write_text("y,x\n1,0\n2,1\n4,2\n3,1\n7,3\n0,0\n", encoding="utf-8")
    argv = ["fit", "--data", str(path), "--response", "y", "--family", "poisson", "--link", "log",
            "--formula", "1+x"]
    assert _loaded(("scipy", *_QUADRATURE_MODULES), *argv) == "[]"


@pytest.mark.parametrize("argv", [
    ["deviance", "--family", "gamma", "--y", "2", "--mu", "1"],
    ["cf-construct", "--cf", "gauss", "--tau", "0.5", "--N", "1024"],
], ids=lambda argv: argv[0])
def test_cli_without_special_functions_leaves_scipy_unloaded(argv):
    assert _loaded(("scipy",), *argv) == "[]"


# runs the CLI on its arguments, after importing scipy.special first if asked, then prints
# whether scipy.special is loaded
_SPECIAL_PROBE = (
    "import sys\n"
    "if sys.argv[1] == 'eager':\n"
    "    import scipy.special\n"
    "from dispmodels.cli import run\n"
    "assert run(sys.argv[2:]) == 0\n"
    "print('scipy.special' in sys.modules)"
)


@pytest.mark.parametrize("argv", [
    ["density", "--family", "gamma", "--y", "1.3", "--mu", "2", "--tau", "0.4"],
    ["tweedie", "--p", "1.5", "--mu", "1", "--tau", "1", "--y-min", "0", "--y-max", "3", "--y-step", "0.5"],
    ["approx", "--family", "gamma", "--mu", "2", "--tau", "0.5", "--y", "3", "--method", "lr"],
], ids=lambda argv: argv[0])
def test_cli_special_function_loads_scipy_special_on_first_call(argv):
    # the lazily imported module gives the same output, byte for byte, as one imported up front
    lazy = _fresh("-W", "error", "-c", _SPECIAL_PROBE, "lazy", *argv)
    eager = _fresh("-W", "error", "-c", _SPECIAL_PROBE, "eager", *argv)
    assert lazy.endswith("\nTrue\n")
    assert lazy == eager


@pytest.mark.parametrize("argv", [
    ["pdm", "--model", "simplex", "--mu", "0.3", "--tau", "0.5", "--y", "0.4"],
], ids=lambda argv: argv[0])
def test_cli_with_quadrature_leaves_scipy_integrate_and_optimize_unloaded(argv):
    # the normalizer integral runs on the package's own Gauss-Legendre rule
    assert _loaded(("scipy.integrate", "scipy.optimize"), *argv) == "[]"


@pytest.mark.parametrize("argv", [
    ["pdm", "--model", "simplex", "--mu", "0.5", "--tau", "1", "--pivotal-check", "--m", "2000"],
    ["check", "--scope", "all"],
], ids=lambda argv: argv[0])
def test_pivotal_check_leaves_scipy_stats_unloaded(argv):
    # the Kolmogorov-Smirnov p-value is the package's closed form for equal sample sizes
    assert _loaded(("scipy.stats",), *argv) == "[]"


@pytest.mark.parametrize("p", ["2.5", "3"])
def test_cli_tweedie_above_two_leaves_scipy_integrate_unloaded(p):
    # the p > 2 table: series and inverted densities, an inverted or (p = 3) closed-form cdf
    argv = ["tweedie", "--p", p, "--mu", "1", "--tau", "1", "--y-min", "0.5", "--y-max", "3", "--y-step", "0.5"]
    assert _loaded(("scipy.integrate",), *argv) == "[]"


def test_p_above_two_inversion_leaves_scipy_integrate_unloaded():
    # (2.5, 0.12, 1, 0.25) is a point where the series cancels, so the density is inverted
    code = (
        "import sys; from dispmodels.tweedie import tweedie_cdf, tweedie_density; "
        "tweedie_density(2.5, 0.12, 1.0, 0.25); tweedie_cdf(3.5, 1.0, 0.7, 0.25); "
        "print('scipy.integrate' in sys.modules)"
    )
    assert _fresh("-c", code).strip() == "False"


def test_p_above_two_inversion_leaves_numpy_polynomial_unloaded():
    # the inversion's Gauss-Legendre rule is written out, not taken from numpy.polynomial.  A density
    # integral calls no special function (the public density and cdf do, and scipy.special itself
    # imports numpy.polynomial)
    code = (
        "import sys; from dispmodels.tweedie import _fourier_inversion; "
        "_fourier_inversion(2.5, 0.12, 1.0, 0.25, False, 1e-8); "
        "_fourier_inversion(3.5, [0.5, 1.0], 0.7, 0.25, False, 1e-8); "
        "print(sorted({'numpy.polynomial', 'scipy.special'} & set(sys.modules)))"
    )
    assert _fresh("-c", code).strip() == "[]"


# each is the first quadrature, sampler or special-function call of its interpreter
_FIRST_CALLS = (
    "pdm_density(get_pdm('vonmises'), 0.3, 1.0, 0.7)",
    "tweedie_cdf(1.5, 1.0, 1.0, 0.5)",  # gammaln, then gammainc
    "lugannani_rice_cdf(get_family('gamma'), 1.5, -1.0, 0.2)",  # ndtr
    "density(get_family('poisson'), 3.0, 0.5, 1.0)",  # gammaln
    "tweedie_density(2.5, 0.12, 1.0, 0.25)",  # the series cancels: the Fourier inversion
    "tweedie_cdf(3.5, 1.0, 0.7, 0.25)",
    "sample_pdm(get_pdm('simplex'), 0.3, 0.5, 5, np.random.default_rng(11)).tolist()",
)


@pytest.mark.parametrize("call", _FIRST_CALLS)
def test_first_call_imports_its_scipy_module(call):
    # pytest has loaded scipy.integrate and scipy.special already, so only a fresh interpreter meets
    # the import inside the call; -W error turns any warning that import raises into a failure
    setup = ("import numpy as np; from dispmodels.pdm import get_pdm, pdm_density, sample_pdm; "
             "from dispmodels.tweedie import tweedie_cdf, tweedie_density; "
             "from dispmodels.edm import density, get_family; "
             "from dispmodels.saddlepoint import lugannani_rice_cdf")
    namespace = {}
    exec(setup, namespace)
    out = _fresh("-W", "error", "-c", f"{setup}; print(repr({call}))")
    assert out.strip() == repr(eval(call, namespace))


def test_p_above_two_evaluation_leaves_mpmath_unloaded():
    # the p > 2 density and cdf are float series and Fourier inversions;
    # (2.5, 0.12, 1, 0.25) is a point where the series cancels
    code = (
        "import sys; from dispmodels.tweedie import tweedie_cdf, tweedie_density; "
        "tweedie_density(2.5, 0.12, 1.0, 0.25); tweedie_cdf(3.5, 1.0, 0.7, 0.25); "
        "print('mpmath' in sys.modules)"
    )
    assert _fresh("-c", code).strip() == "False"


def test_lugannani_rice_leaves_mpmath_unloaded():
    # next to the mean and away from it, for a closed-form and a Tweedie family;
    # 50-digit references belong to the tests
    code = (
        "import sys; from dispmodels import edm; from dispmodels.saddlepoint import lugannani_rice; "
        "from dispmodels.tweedie import tweedie_family; "
        "fams = (edm.FAMILIES['gamma'], tweedie_family(1.5).to_edm()); "
        "[lugannani_rice(f, y, edm.inverse_mean(f, 1.0), 0.2, 5) for f in fams for y in (1.0 + 1e-9, 1.5)]; "
        "print('mpmath' in sys.modules)"
    )
    assert _fresh("-c", code).strip() == "False"


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (``__all__`` re-exports count as reads)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_detector():
    source = "import os\nimport numpy as np\nfrom math import log, exp\n__all__ = ['exp']\nnp.zeros(1)\n"
    assert _unused_imports(source) == ["os (line 1)", "log (line 3)"]


_MODULES = sorted(
    path for path in pathlib.Path(dispmodels.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.stem)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _scipy_solver_imports(source: str) -> list[str]:
    """Imports of ``scipy.integrate`` or ``scipy.optimize`` (or names from them) in ``source``."""
    banned = ("scipy.integrate", "scipy.optimize")
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{a.name} (line {node.lineno})" for a in node.names if a.name.startswith(banned)]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{a.name}" for a in node.names] if node.module == "scipy" else [node.module]
            found += [f"{name} (line {node.lineno})" for name in names if name.startswith(banned)]
    return found


def test_scipy_solver_import_detector():
    source = ("import scipy.integrate\nfrom scipy.optimize import brentq\nfrom scipy import integrate, special\n"
              "from scipy.special import gammaln\nimport scipy.interpolate\n")
    assert _scipy_solver_imports(source) == ["scipy.integrate (line 1)", "scipy.optimize (line 2)",
                                             "scipy.integrate (line 3)"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.stem)
def test_module_imports_neither_scipy_integrate_nor_optimize(path):
    # quadrature, root finding and maximization are the package's own routines
    assert _scipy_solver_imports(path.read_text(encoding="utf-8")) == []


def _unread_private_names(sources: list[str]) -> list[str]:
    """Module-level ``_name`` functions, classes and assignments that no source reads."""
    trees = [ast.parse(source) for source in sources]
    defined = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update((name, node.lineno) for name in names
                           if name.startswith("_") and not name.startswith("__"))
    read = {node.id for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return [f"{name} (line {line})" for name, line in defined.items() if name not in read]


def test_unread_private_name_detector():
    sources = ["_A = 1\n_B, _C = 2, 3\n__all__ = []\ndef _f():\n    return _A\nclass _K:\n    pass\n",
               "from m import _f\n_f()\nm._C\n"]
    assert _unread_private_names(sources) == ["_B (line 2)", "_K (line 6)"]


def test_package_has_no_unread_private_names():
    # a private helper that nothing reads any more is deleted with its last caller
    sources = [path.read_text(encoding="utf-8") for path in pathlib.Path(dispmodels.__file__).parent.glob("*.py")]
    assert _unread_private_names(sources) == []
