"""Command-line front end: deviance, density, approx, tweedie, pdm,
cf-construct, fit, check.

Numbers print with 17 significant digits so that re-parsing reproduces
the library value bitwise.  Errors go to stderr with a machine-parseable
``ERROR:<code>:`` prefix; exit codes are 0 (success), 1 (usage or domain
error), 2 (numerical failure, float overflow included).  Every float option
must be a finite number.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
import warnings

import numpy as np

from . import cf_construct, checks, edm, pdm, regression, saddlepoint, tweedie
from .deviance import DEVIANCES, get_deviance, eval_deviance
from .errors import DomainError, NumericalError
from .expressions import compile_expression

__all__ = ["main", "run"]


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return "null"
    value = float(x)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return format(value, ".17g")


def _json(obj) -> str:
    """Tiny JSON writer keeping floats at 17 significant digits."""
    if isinstance(obj, dict):
        items = ", ".join(f'"{k}": {_json(v)}' for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json(v) for v in obj) + "]"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return _fmt(obj)


# ``tweedie`` table rows, cf grid points, Monte Carlo draws: more is refused before any is made
_MAX_TABLE_ROWS = 10**6
_MAX_CF_GRID = 2**20
_MAX_PIVOTAL_DRAWS = 10**7


def _finite_float(text: str, what: str = "the value", error=argparse.ArgumentTypeError) -> float:
    """The argparse type of every float option: nan, inf and non-numbers raise ``error``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise error(f"{what} must be a finite number, got {text!r}")
    return value


def _floats(text: str, what: str) -> list[float]:
    """Comma-separated finite numbers, or DomainError naming the option."""
    return [_finite_float(v, what, DomainError) for v in text.split(",")]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"ERROR:usage:{message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(1)


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    parser = _Parser(prog="dispmodels", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deviance", help="evaluate a unit deviance d(y; mu)")
    p.add_argument("--family", required=True, choices=sorted(DEVIANCES))
    p.add_argument("--y", type=_finite_float, required=True)
    p.add_argument("--mu", type=_finite_float, required=True)

    p = sub.add_parser("density", help="EDM density at y for (theta, tau)")
    p.add_argument("--family", required=True)
    p.add_argument("--y", type=_finite_float, required=True)
    p.add_argument("--theta", type=_finite_float)
    p.add_argument("--mu", type=_finite_float)
    p.add_argument("--tau", type=_finite_float, default=1.0)

    p = sub.add_parser("approx", help="saddlepoint / Lugannani-Rice approximations")
    p.add_argument("--family", required=True)
    p.add_argument("--theta", type=_finite_float)
    p.add_argument("--mu", type=_finite_float)
    p.add_argument("--tau", type=_finite_float, default=1.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--y", type=_finite_float, required=True)
    p.add_argument("--method", required=True, choices=["saddle", "renorm", "lr", "mean-lr"])

    p = sub.add_parser("tweedie", help="Tweedie density/cdf table as CSV")
    p.add_argument("--p", type=_finite_float, required=True)
    p.add_argument("--mu", type=_finite_float, required=True)
    p.add_argument("--tau", type=_finite_float, required=True)
    p.add_argument("--y-min", type=_finite_float, required=True)
    p.add_argument("--y-max", type=_finite_float, required=True)
    p.add_argument("--y-step", type=_finite_float, required=True)
    p.add_argument("--output", default=None, help="CSV path (default stdout)")

    p = sub.add_parser("pdm", help="proper dispersion model operations")
    p.add_argument("--model", required=True, choices=sorted(pdm.PDMS))
    p.add_argument("--mu", type=_finite_float, required=True)
    p.add_argument("--tau", type=_finite_float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--y", type=_finite_float, help="evaluate the density at y")
    group.add_argument("--integrate", action="store_true", help="report the normalizer a0(tau)")
    group.add_argument("--pivotal-check", action="store_true", help="Monte Carlo pivotality report")
    p.add_argument("--mu-list", default=None, help="comma-separated mu values for the pivotal check")
    p.add_argument("--m", type=int, default=pdm._PIVOTAL_DRAWS, help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)

    p = sub.add_parser("cf-construct", help="solve the cf convolution normalization equation")
    p.add_argument("--cf", required=True, help="gauss | laplace-cf | triangular-cf | expression in t")
    p.add_argument("--tau", type=_finite_float, required=True)
    p.add_argument("--L", type=_finite_float, default=20.0)
    p.add_argument("--N", type=int, default=2**12)
    p.add_argument("--lambda-reg", type=_finite_float, default=None,
                   help="Tikhonov weight lambda in units of A^2, A the kernel matrix; sqrt(lambda) shifts A "
                        "(default 1e-10 ||A||^2, ||A|| the largest row sum of A)")
    p.add_argument("--output", default=None, help="CSV path (default stdout); JSON report goes to stderr")

    p = sub.add_parser("fit", help="fit an exponential-family (non)linear regression")
    p.add_argument("--data", required=True, help="CSV file with a header row")
    p.add_argument("--response", required=True, help="response column name")
    p.add_argument("--family", required=True)
    p.add_argument("--link", required=True, choices=sorted(regression.LINKS))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="linear terms: '+'-joined column names ('1' = intercept only)")
    group.add_argument("--predictor-expr", help="expression in column names and b1..bp")
    p.add_argument("--beta0", default=None, help="comma-separated initial coefficients")
    p.add_argument("--n-params", type=int, default=None, help="parameter count for --predictor-expr")
    p.add_argument("--tau-method", default="moment", choices=["moment", "mle"])

    p = sub.add_parser("check", help="run the invariant self-test suites")
    p.add_argument("--scope", "--family", dest="scope", default="all")
    p.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    return parser


def _resolve_family(name: str) -> edm.EdmFamily:
    if name.startswith("tweedie:"):
        p = _finite_float(name.split(":", 1)[1], "the power p", DomainError)
        return tweedie.tweedie_family(p).to_edm()
    return edm.get_family(name)


def _resolve_theta(fam, theta, mu):
    if (theta is None) == (mu is None):
        raise DomainError("exactly one of --theta and --mu is required")
    return theta if theta is not None else edm.inverse_mean(fam, mu)


def _cmd_deviance(args) -> int:
    value = eval_deviance(get_deviance(args.family), args.y, args.mu)
    print(_fmt(value))
    return 0


def _cmd_density(args) -> int:
    fam = _resolve_family(args.family)
    theta = _resolve_theta(fam, args.theta, args.mu)
    value = edm.density(fam, args.y, theta, args.tau)
    print(_fmt(value))
    return 0


def _cmd_approx(args) -> int:
    fam = _resolve_family(args.family)
    theta = _resolve_theta(fam, args.theta, args.mu)
    out = {"value": None, "saddle": None, "r": None, "u": None}
    if args.method == "saddle":
        res = saddlepoint.saddlepoint_density(fam, args.y, theta, args.tau)
        out.update(value=res.value, saddle=res.saddle)
    elif args.method == "renorm":
        mu = edm.mean_value(fam, theta)
        res = saddlepoint.renormalized_saddlepoint(edm.unit_deviance_of(fam), edm.variance_function_of(fam),
                                                   args.y, mu, args.tau)
        out.update(value=res.value, saddle=res.saddle)
    else:  # lr, mean-lr: the same formula, at tau/n for the mean of n
        n = args.n if args.method == "mean-lr" else 1
        res = saddlepoint.lugannani_rice(fam, args.y, theta, args.tau, n)
        out.update(value=res.value, saddle=res.saddle, r=res.r, u=res.u)
    print(_json(out))
    return 0


def _cmd_tweedie(args) -> int:
    if args.y_step <= 0:
        raise DomainError("--y-step must be positive")
    rows = (args.y_max + 0.5 * args.y_step - args.y_min) / args.y_step  # as np.arange counts them
    if not rows <= _MAX_TABLE_ROWS:
        raise DomainError(f"the table would have {rows:.3g} rows, more than {_MAX_TABLE_ROWS}")
    support = tweedie.tweedie_support(args.p)
    ys = [y for y in np.arange(args.y_min, args.y_max + 0.5 * args.y_step, args.y_step).tolist()
          if support.contains(y)]
    dens = [tweedie.tweedie_density(args.p, y, args.mu, args.tau) for y in ys]
    cdf = tweedie.tweedie_cdf(args.p, np.array(ys), args.mu, args.tau)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["y", "density", "cdf"])
    for row in zip(ys, dens, cdf):
        writer.writerow([_fmt(v) for v in row])
    _write_text(args.output, buffer.getvalue())
    return 0


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_pdm(args) -> int:
    spec = pdm.get_pdm(args.model)
    if args.integrate:
        a0 = pdm.pdm_normalizer(spec.deviance, spec.carrier, args.tau, args.mu)
        print(_json({"model": args.model, "tau": args.tau, "a0": a0}))
        return 0
    if args.pivotal_check:
        if args.m > _MAX_PIVOTAL_DRAWS:
            raise DomainError(f"--m {args.m} is more than {_MAX_PIVOTAL_DRAWS} draws")
        if args.mu_list:
            mus = _floats(args.mu_list, "each --mu-list entry")
        else:
            mus = [float(m) for m in spec.deviance.omega.grid(3, 1e-2, span=3.0)]
        report = pdm.pivotal_check(spec, mus, args.tau, m=args.m, seed=args.seed)
        print(_json({"model": args.model, "tau": args.tau, "mu_list": report.mu_list, "p_values": report.p_values,
                     "min_p_value": report.min_p_value, "passed": report.passed()}))
        return 0
    value = pdm.pdm_density(spec, args.y, args.mu, args.tau)
    print(_json({"model": args.model, "y": args.y, "mu": args.mu, "tau": args.tau, "density": value}))
    return 0


def _cmd_cf_construct(args) -> int:
    if args.N > _MAX_CF_GRID:
        raise DomainError(f"--N {args.N} is more than {_MAX_CF_GRID} grid points")
    cf = cf_construct.get_cf(args.cf)
    sol = cf_construct.solve_normalizer(cf, args.tau, args.L, args.N, lambda_reg=args.lambda_reg)
    # the grid and a returned solution are finite, so one format gives _fmt's text for every value
    rows = map("{:.17g},{:.17g}\n".format, sol.grid.tolist(), sol.a_values.tolist())
    _write_text(args.output, "y,a\n" + "".join(rows))
    report = {"cf": cf.name, "tau": sol.tau, "N": len(sol.grid), "L": args.L, **{name: getattr(sol, name) for name in (
        "lambda_reg", "residual", "edge_band", "iterations", "passes", "ill_posed", "overshoot", "plateau",
        "interior_level")}}
    print(_json(report), file=sys.stderr)
    return 0


def _read_csv(path: str) -> tuple[list[str], dict[str, np.ndarray]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            header = [name.strip() for name in next(csv.reader(fh))]
        except StopIteration:
            raise DomainError(f"{path}: empty CSV; a header row is mandatory") from None
        try:
            with warnings.catch_warnings():
                # a header without data rows is read as zero observations
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", quotechar='"', ndmin=2, usecols=range(len(header)))
        except ValueError as exc:
            raise DomainError(f"{path}: data rows are not fully numeric: {exc}") from None
    return header, {name: data[:, j] for j, name in enumerate(header)}


def _cmd_fit(args) -> int:
    header, columns = _read_csv(args.data)
    if args.response not in columns:
        raise DomainError(f"response column {args.response!r} not in CSV header {header}")
    y = columns[args.response]
    fam = _resolve_family(args.family)
    link = regression.get_link(args.link)

    if args.formula is not None:
        terms = [t.strip() for t in args.formula.split("+") if t.strip()]
        cols = [np.ones(len(y))]
        names = ["(intercept)"]
        for term in terms:
            if term == "1":
                continue
            if term not in columns:
                raise DomainError(f"formula term {term!r} not in CSV header {header}")
            cols.append(columns[term])
            names.append(term)
        X = np.column_stack(cols)
        predictor = regression.linear_predictor(X.shape[1])
        beta0 = None
        if args.beta0:
            beta0 = np.array(_floats(args.beta0, "each --beta0 entry"))
    else:
        covariates = [name for name in header if name != args.response]
        if args.n_params is None:
            raise DomainError("--predictor-expr requires --n-params")
        n_params = args.n_params
        param_names = [f"b{j + 1}" for j in range(n_params)]
        expr_fn = compile_expression(args.predictor_expr, covariates + param_names)
        X = np.column_stack([columns[name] for name in covariates])

        def fn(Xmat, beta):
            return np.broadcast_to(expr_fn(*Xmat.T, *beta), len(Xmat))

        predictor = regression.predictor_from_function(fn, n_params)
        names = param_names
        if not args.beta0:
            raise DomainError("--predictor-expr requires --beta0")
        beta0 = np.array(_floats(args.beta0, "each --beta0 entry"))

    model = regression.RegressionModel(fam, link, predictor)
    result = regression.fit(model, X, y, beta0=beta0, tau_method=args.tau_method)
    print(_json({"beta": list(result.beta), "se": list(result.standard_errors), "tau": result.tau,
                 "tau_method": result.tau_method, "deviance": result.deviance, "iterations": result.iterations,
                 "converged": result.converged, "score_norm": result.score_norm, "terms": names}))
    if not result.converged:
        print(f"ERROR:numerical:IRLS did not converge in {result.iterations} iterations "
              f"(score norm {result.score_norm:.3g})", file=sys.stderr)
        return 2
    return 0


def _cmd_check(args) -> int:
    try:
        results = checks.run_checks(args.scope, seed=args.seed)
    except KeyError:
        print(f"ERROR:usage:unknown check scope {args.scope!r}; available: " + ", ".join(checks.available_scopes()),
              file=sys.stderr)
        return 1
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 2


_COMMANDS = {
    "deviance": _cmd_deviance,
    "density": _cmd_density,
    "approx": _cmd_approx,
    "tweedie": _cmd_tweedie,
    "pdm": _cmd_pdm,
    "cf-construct": _cmd_cf_construct,
    "fit": _cmd_fit,
    "check": _cmd_check,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (DomainError, FileNotFoundError) as exc:
        print(f"ERROR:domain:{exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"ERROR:numerical:{exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as exc:
        # the refusal rule of ``errors``, for the CLI's own arithmetic and the library code that
        # is not a decorated evaluation function (fits, cf solves, checks)
        print(f"ERROR:numerical:{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
