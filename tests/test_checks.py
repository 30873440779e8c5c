"""The self-test suites behind the ``check`` subcommand, called directly."""

import pytest

from dispmodels.checks import available_scopes, run_checks
from dispmodels.deviance import DEVIANCES


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
