"""The self-test suites behind the ``check`` subcommand, called directly."""

import pytest

from dispmodels import pdm
from dispmodels.cf_construct import CHARACTERISTIC_FUNCTIONS, CfSpec, validate_cf
from dispmodels.checks import DEFAULT_SEED, _check_cf, _check_pivotal, available_scopes, run_checks
from dispmodels.deviance import DEVIANCES
from dispmodels.errors import DomainError


def test_family_scope_runs_five_passing_checks():
    results = run_checks("gamma")
    assert len(results) == 5
    for name, passed, detail in results:
        assert name.startswith("gamma: ")
        assert passed, (name, detail)


def test_unknown_scope_raises_key_error():
    with pytest.raises(KeyError):
        run_checks("nosuch")


def test_available_scopes_list_every_deviance():
    scopes = available_scopes()
    assert scopes[0] == "all"
    assert set(DEVIANCES) <= set(scopes)


def test_curvature_rows_measure_the_deviance_itself():
    # the registered V is dropped for these rows, so their spreads and gaps
    # are finite-difference errors, small but not the 0 of V against itself
    for name, passed, detail in run_checks("all"):
        if "second-derivative" in name or "d_mumu" in name:
            worst = float(detail.split()[-1])
            assert passed and 0.0 < worst <= 1e-9, (name, detail)


def test_curvature_rows_take_one_derivative_per_grid(monkeypatch):
    # the curvature rows difference whole grids, not one point at a time (1148 calls that way)
    import dispmodels.deviance as deviance
    import dispmodels.edm as edm

    calls = []
    for module in (deviance, edm):
        real = module.derivative
        monkeypatch.setattr(module, "derivative", lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
    run_checks("all")
    assert 0 < len(calls) <= 40


def test_cf_row_passes_on_gauss():
    name, passed, detail = _check_cf("gauss", DEFAULT_SEED)
    assert name == "cf gauss: characteristic-function probes"
    assert passed, detail


def test_cf_row_fails_on_a_lattice_cf(monkeypatch):
    # the point mass at 0 lives on every lattice: |phi| = 1 at every probe
    monkeypatch.setitem(CHARACTERISTIC_FUNCTIONS, "point-mass", CfSpec(phi=lambda t: 1.0, name="point-mass"))
    name, passed, detail = _check_cf("point-mass", DEFAULT_SEED)
    assert not passed
    with pytest.raises(DomainError) as raised:
        validate_cf(CHARACTERISTIC_FUNCTIONS["point-mass"])
    assert detail == str(raised.value) and "lattice" in detail


def test_pivotal_row_passes_on_von_mises(monkeypatch):
    monkeypatch.setattr(pdm, "_PIVOTAL_DRAWS", 2000)
    name, passed, detail = _check_pivotal("vonmises", (0.0, 1.0, 3.0), 0.5, DEFAULT_SEED)
    assert name == "pdm vonmises: pivotal KS (m=2000)"
    assert passed, detail
    assert detail.startswith("min pairwise p-value ")
    assert 0.001 < float(detail.split()[-1]) <= 1.0
