"""The model objects each workload builds before its first op.

Kept free of numpy-only or oracle imports so that ``setup_probe.py`` times
exactly ``import dispmodels`` plus this construction in a fresh
interpreter.
"""

from __future__ import annotations


def build_models(workload: str, package: str = "dispmodels") -> dict:
    """Families, PdmSpecs, CfSpecs and the CLI parser the workload uses,
    built from ``package``."""
    import importlib

    cf_construct, cli, edm, pdm, regression, tweedie = (
        importlib.import_module(f"{package}.{name}")
        for name in ("cf_construct", "cli", "edm", "pdm", "regression", "tweedie"))

    models = {"parser": cli._build_parser()}
    if workload == "glm":
        models["families"] = {
            name: edm.get_family(name) for name in ("poisson", "binomial", "gamma", "normal")
        }
        models["families"]["tweedie:1.5"] = tweedie.tweedie_family(1.5).to_edm()
        models["links"] = {name: regression.get_link(name) for name in ("log", "logit", "identity")}
    elif workload == "evaluate":
        models["families"] = {
            name: edm.get_family(name)
            for name in ("normal", "gamma", "poisson", "inverse_gaussian", "gsh")
        }
        gamma = models["families"]["gamma"]
        models["gamma_deviance"] = edm.unit_deviance_of(gamma)
        models["gamma_variance"] = edm.variance_function_of(gamma)
        models["pdms"] = {name: pdm.get_pdm(name) for name in ("vonmises", "simplex")}
    elif workload == "construct":
        models["cfs"] = {
            name: cf_construct.get_cf(name) for name in ("gauss", "laplace-cf", "triangular-cf")
        }
        # the PDMs ``check --scope all`` samples from
        models["pdms"] = {name: pdm.get_pdm(name) for name in ("vonmises", "simplex")}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return models
