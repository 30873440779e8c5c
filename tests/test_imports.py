"""Import footprint of the package."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

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
    src = os.path.dirname(os.path.dirname(dispmodels.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"


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
