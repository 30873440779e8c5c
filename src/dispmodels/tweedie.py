"""Tweedie power-variance families: V(mu) = mu^p.

No family exists for p in (0, 1); p = 0, 1, 2, 3 are the normal, Poisson,
gamma and inverse Gaussian families of ``edm.FAMILIES``; 1 < p < 2 gives
compound Poisson-gamma distributions (continuous on y > 0 with an atom at
zero); p > 2 gives continuous positive-stable generated distributions;
p < 0 gives extreme-stable generated distributions whose densities have
no workable evaluation route here (generator and deviance only).

Every density is ``exp{c(y; tau) + [y theta - b_p(theta)]/tau}`` with one
normalizer c: the EDM family's at p in {0, 1, 2, 3} (the Poisson one in
dispersion form, so p = 1 covers the lattice ``tau N0``), and otherwise a
power series anchored at its largest term, following the compound
Poisson-gamma expansion for 1 < p < 2 and its positive-stable dual for
p > 2.

The public functions validate their arguments and evaluate private
formulas; ``TweedieFamily.to_edm`` hands the formulas themselves to the
EDM layer, which has already checked the domains.  The formulas take a
float or an ndarray, so Tweedie families run on the array path of IRLS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from . import _elementary as el
from ._numdiff import _support_integral
from .edm import FAMILIES, EdmFamily
from .errors import DomainError, NumericalError
from .support import POSITIVE_REALS, REALS, RealInterval

__all__ = [
    "TweedieFamily",
    "tweedie_family",
    "tweedie_canonical_domain",
    "tweedie_cumulant_generator",
    "tweedie_mean",
    "tweedie_inverse_mean",
    "tweedie_deviance",
    "tweedie_density",
    "tweedie_zero_mass",
    "tweedie_cdf",
    "compound_poisson_gamma_params",
    "sample_compound_poisson_gamma",
]

# width of the limit-formula switchover around p = 1 and p = 2, where the
# (1-p) and (2-p) denominators cancel catastrophically
P_SWITCH = 1e-6

_SERIES_MAX_TERMS = 10**5


def _validate_p(p: float) -> float:
    p = float(p)
    if 0.0 < p < 1.0:
        raise DomainError(f"no exponential dispersion model has power variance p={p} in (0, 1)")
    return p


def _near(p: float, target: float) -> bool:
    return abs(p - target) < P_SWITCH


def tweedie_canonical_domain(p: float) -> RealInterval:
    """Canonical domain of the generator: where [(1-p) theta]^((p-2)/(p-1)) lives."""
    p = _validate_p(p)
    if _near(p, 1.0) or p == 0.0:
        return REALS
    if p < 0.0:
        return POSITIVE_REALS
    return RealInterval(-math.inf, 0.0)


def tweedie_support(p: float) -> RealInterval:
    p = _validate_p(p)
    if p <= 0.0:
        return REALS
    if _near(p, 1.0):
        return RealInterval(0.0, math.inf, closed_lower=True, lattice=True)
    if p < 2.0:
        return RealInterval(0.0, math.inf, closed_lower=True)
    return POSITIVE_REALS


def tweedie_mean_domain(p: float) -> RealInterval:
    return REALS if p == 0.0 else POSITIVE_REALS


def tweedie_cumulant_generator(p: float, theta: float) -> float:
    """Cumulant generator ``b_p(theta)``.

    ``(2-p)^(-1) [(1-p) theta]^((p-2)/(p-1))`` away from the special
    powers; ``exp(theta)`` at p = 1 and ``-log(-theta)`` at p = 2 (the
    removable singularities of the general form).
    """
    p = _validate_p(p)
    tweedie_canonical_domain(p).require(theta, "theta")
    return _generator(p, theta)


def _generator(p: float, theta):
    if _near(p, 1.0):
        return el.exp(theta)
    if _near(p, 2.0):
        return -el.log(-theta)
    if p == 0.0:
        return 0.5 * theta * theta
    return ((1.0 - p) * theta) ** ((p - 2.0) / (p - 1.0)) / (2.0 - p)


def tweedie_mean(p: float, theta: float) -> float:
    """Mean value mapping ``b_p'(theta) = [(1-p) theta]^(1/(1-p))``."""
    p = _validate_p(p)
    tweedie_canonical_domain(p).interior().require(theta, "theta")
    return _mean(p, theta)


def _mean(p: float, theta):
    if _near(p, 1.0):
        return el.exp(theta)
    if p == 0.0:
        return theta
    return ((1.0 - p) * theta) ** (1.0 / (1.0 - p))


def tweedie_inverse_mean(p: float, mu: float) -> float:
    """Canonical parameter ``q(mu) = mu^(1-p)/(1-p)`` (log mu at p = 1)."""
    p = _validate_p(p)
    tweedie_mean_domain(p).require(mu, "mu")
    return _inverse_mean(p, mu)


def _inverse_mean(p: float, mu):
    if _near(p, 1.0):
        return el.log(mu)
    if p == 0.0:
        return mu
    return mu ** (1.0 - p) / (1.0 - p)


def _b_nth(p: float, r: int, theta):
    # b^(r) = A^(c-(r-1)) * prod_{i=1}^{r-2} (1 - i (1 - p)),  A = (1-p) theta, c = 1/(1-p)
    if _near(p, 1.0):
        return el.exp(theta)
    if p == 0.0:
        return 0.0 if r >= 3 else (theta if r == 1 else 1.0)
    a = (1.0 - p) * theta
    c = 1.0 / (1.0 - p)
    coeff = 1.0
    for i in range(1, r - 1):
        coeff *= 1.0 - i * (1.0 - p)
    return coeff * a ** (c - (r - 1.0))


def tweedie_deviance(p: float, y: float, mu: float) -> float:
    """Unit deviance ``d_p(y; mu) = 2 integral_mu^y (y - t) t^(-p) dt``.

    Evaluated from its antiderivative, with the Poisson and gamma limit
    formulas taking over inside the switch window around p = 1 and p = 2.
    The ``max(y, 0)`` convention in the first term is the saturated
    (Legendre) part, which vanishes for y <= 0 when the canonical domain
    is one-sided.
    """
    p = _validate_p(p)
    tweedie_support(p).require(y, "y")
    tweedie_mean_domain(p).require(mu, "mu")
    if y == mu:
        return 0.0
    return _deviance(p, y, mu)


def _classic_family(p: float) -> Optional[EdmFamily]:
    """The EDM a special power is: normal, Poisson, gamma or inverse Gaussian."""
    if p == 0.0:
        return FAMILIES["normal"]
    if _near(p, 1.0):
        return FAMILIES["poisson"]
    if _near(p, 2.0):
        return FAMILIES["gamma"]
    if p == 3.0:
        return FAMILIES["inverse_gaussian"]
    return None


def _deviance(p: float, y, mu):
    classic = _classic_family(p)
    if classic is not None:
        return classic.deviance_closed_form(y, mu)
    saturated = el.positive_part(y) ** (2.0 - p) / ((1.0 - p) * (2.0 - p))
    return 2.0 * (saturated - y * mu ** (1.0 - p) / (1.0 - p) + mu ** (2.0 - p) / (2.0 - p))


def tweedie_zero_mass(p: float, mu: float, tau: float) -> float:
    """Probability mass at zero for 1 < p < 2: ``exp(-mu^(2-p) / (tau (2-p)))``.

    This is the Poisson probability of zero jumps in the compound
    Poisson-gamma representation.
    """
    if not 1.0 < p < 2.0:
        raise DomainError(f"the zero atom exists only for 1 < p < 2, got p={p}")
    POSITIVE_REALS.require(mu, "mu")
    POSITIVE_REALS.require(tau, "tau")
    return math.exp(-(mu ** (2.0 - p)) / (tau * (2.0 - p)))


def compound_poisson_gamma_params(p: float, mu: float, tau: float) -> tuple[float, float, float]:
    """(Poisson rate, gamma shape, gamma scale) of the 1 < p < 2 representation."""
    if not 1.0 < p < 2.0:
        raise DomainError(f"compound Poisson-gamma representation needs 1 < p < 2, got p={p}")
    rate = mu ** (2.0 - p) / (tau * (2.0 - p))
    shape = (2.0 - p) / (p - 1.0)
    scale = tau * (p - 1.0) * mu ** (p - 1.0)
    return rate, shape, scale


def sample_compound_poisson_gamma(
    p: float, mu: float, tau: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draws from the compound Poisson-gamma Tweedie (1 < p < 2).

    A sum of N iid gamma(shape, scale) with N ~ Poisson(rate) is
    gamma(N * shape, scale), so the whole batch vectorizes.
    """
    rate, shape, scale = compound_poisson_gamma_params(p, mu, tau)
    counts = rng.poisson(rate, size=size)
    out = np.zeros(size)
    positive = counts > 0
    out[positive] = rng.gamma(shape * counts[positive], scale)
    return out


def _log_w_series(p: float, y: float, tau: float) -> float:
    """log sum_j W_j for the 1 < p < 2 compound Poisson-gamma density."""
    alpha = (2.0 - p) / (1.0 - p)  # negative here
    logz = (
        -alpha * math.log(y)
        + alpha * math.log(p - 1.0)
        - (1.0 - alpha) * math.log(tau)
        - math.log(2.0 - p)
    )

    def log_term(j: float) -> float:
        return j * logz - gammaln(1.0 + j) - gammaln(-alpha * j)

    j_anchor = max(1, int(round(y ** (2.0 - p) / ((2.0 - p) * tau))))
    log_max = log_term(j_anchor)
    total = 1.0  # the anchor term, scaled
    terms = 1
    j = j_anchor + 1
    while terms < _SERIES_MAX_TERMS:
        w = math.exp(log_term(j) - log_max)
        total += w
        terms += 1
        if w < 1e-13 * total:
            break
        j += 1
    else:
        raise NumericalError(f"Tweedie series did not converge within {_SERIES_MAX_TERMS} terms")
    j = j_anchor - 1
    while j >= 1 and terms < _SERIES_MAX_TERMS:
        w = math.exp(log_term(j) - log_max)
        total += w
        terms += 1
        if w < 1e-13 * total:
            break
        j -= 1
    return log_max + math.log(total)


def _log_v_series(p: float, y: float, tau: float) -> float:
    """log of the positive-stable series sum for the p > 2 density.

    The terms alternate in sign and the float accumulation can cancel
    catastrophically deep in the left tail; when the scaled sum keeps less
    than ~8 significant digits the summation is redone in extended
    precision (mpmath).
    """
    alpha = (2.0 - p) / (1.0 - p)  # in (0, 1) here
    log_rho = (
        (alpha - 1.0) * math.log(tau)
        + alpha * math.log(p - 1.0)
        - alpha * math.log(y)
        - math.log(p - 2.0)
    )

    entries: list[tuple[int, float, float]] = []
    log_max = -math.inf
    prev_env = -math.inf
    for k in range(1, _SERIES_MAX_TERMS + 1):
        # the |sin| factor dips to ~0 on a sublattice; the stop rule must
        # look at the sine-free envelope or it truncates prematurely
        log_env = gammaln(1.0 + alpha * k) - gammaln(1.0 + k) + k * log_rho
        s = math.sin(-k * math.pi * alpha) * (-1.0) ** k
        if s != 0.0:
            log_abs = log_env + math.log(abs(s))
            entries.append((k, log_abs, math.copysign(1.0, s)))
            log_max = max(log_max, log_abs)
        if log_env < log_max - 40.0 and log_env < prev_env and len(entries) > 4:
            break
        prev_env = log_env
    else:
        raise NumericalError(f"Tweedie series did not converge within {_SERIES_MAX_TERMS} terms")
    total = math.fsum(sign * math.exp(log_abs - log_max) for _, log_abs, sign in entries)
    gross = math.fsum(math.exp(log_abs - log_max) for _, log_abs, _ in entries)
    if total > 1e-8 * gross:
        return log_max + math.log(total)
    return _log_v_series_mp(p, y, tau, log_max)


def _log_v_series_mp(p: float, y: float, tau: float, log_max: float) -> float:
    """Extended-precision rescan of the p > 2 series for cancelling tails.

    The working precision is sized from a saddlepoint estimate of the sum
    (which is mu-free: evaluate the tilt at mu = y, where the deviance
    vanishes), and terms are accumulated until the envelope sits well
    below the accumulated value.
    """
    import mpmath as mp

    log_v_estimate = (
        math.log(math.pi * y)
        - 0.5 * math.log(2.0 * math.pi * tau * y**p)
        - y ** (2.0 - p) / ((1.0 - p) * (2.0 - p) * tau)
    )
    dps = max(50, int((log_max - log_v_estimate) / math.log(10.0)) + 30)
    with mp.workdps(dps):
        alpha = (mp.mpf(2) - p) / (mp.mpf(1) - p)
        log_rho = (
            (alpha - 1) * mp.log(tau)
            + alpha * mp.log(p - 1.0)
            - alpha * mp.log(y)
            - mp.log(p - 2.0)
        )
        acc = mp.mpf(0)
        peak = -mp.inf
        prev_env = -mp.inf
        for k in range(1, _SERIES_MAX_TERMS + 1):
            env = mp.loggamma(1 + alpha * k) - mp.loggamma(1 + k) + k * log_rho
            acc += mp.exp(env) * mp.sin(-k * mp.pi * alpha) * (-1) ** k
            peak = max(peak, env)
            past_peak = env < prev_env and env < peak - 40
            if past_peak and acc > 0 and env < mp.log(acc) - 40:
                break
            prev_env = env
        else:
            raise NumericalError(
                f"Tweedie series did not converge within {_SERIES_MAX_TERMS} terms"
            )
        if acc <= 0:
            raise NumericalError(
                f"positive-stable series lost all significance at (p={p}, y={y}, tau={tau})"
            )
        return float(mp.log(acc))


def _log_normalizer(p: float, y: float, tau: float) -> float:
    """The additive term ``c(y; tau)`` of the log density, for p >= 0.

    The EDM normalizer at p in {0, 1, 2, 3}; the max-term-anchored series
    otherwise (with c = 0 at the zero atom for 1 < p < 2).
    """
    classic = _classic_family(p)
    if classic is not None:
        return classic.exact_normalizer(y, tau)
    if p < 2.0:
        return 0.0 if y == 0.0 else _log_w_series(p, y, tau) - math.log(y)
    return _log_v_series(p, y, tau) - math.log(math.pi * y)


def tweedie_density(p: float, y: float, mu: float, tau: float) -> float:
    """Density (or lattice mass, or the zero atom) of a Tweedie distribution.

    ``exp{c(y; tau) + [y theta - b_p(theta)]/tau}`` at ``theta = q(mu)``,
    with c from :func:`_log_normalizer`.  At p = 1 the support is the
    lattice ``tau N0``.  Densities for p < 0 have no computable route here
    and are refused.
    """
    p = _validate_p(p)
    if p < 0.0:
        raise DomainError("Tweedie densities for p < 0 are not evaluated (generator/deviance only)")
    POSITIVE_REALS.require(tau, "tau")
    tweedie_mean_domain(p).require(mu, "mu")
    tweedie_support(p).require(y, "y")
    if _near(p, 1.0):
        counts = y / tau
        if abs(counts - round(counts)) > 1e-9:
            raise DomainError(f"p=1 support is the lattice tau*N0; y={y} is off-lattice for tau={tau}")
    if _near(p, 2.0):
        p = 2.0  # the switch window is the gamma family itself, of mean mu
    theta = _inverse_mean(p, mu)
    return math.exp(_log_normalizer(p, y, tau) + (y * theta - _generator(p, theta)) / tau)


def tweedie_cdf(p: float, y, mu: float, tau: float):
    """Distribution function: the lattice sum at p = 1, else quadrature of the density.

    For 1 < p < 2 the zero atom is included for y >= 0.  ``y`` may be an
    ascending ndarray, such as the rows of a table; each entry then adds
    one quadrature from the entry before it, and an ndarray is returned.
    """
    p = _validate_p(p)
    if p < 0.0:
        raise DomainError("Tweedie cdfs for p < 0 are not evaluated")
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(np.diff(ys) < 0.0):
        raise DomainError("tweedie_cdf needs y in ascending order")
    values = np.empty(len(ys))
    if _near(p, 1.0):
        for i, yi in enumerate(ys.tolist()):
            tweedie_support(p).require(yi, "y")
            counts = RealInterval(0.0, (yi + 1e-12) / tau, closed_lower=True, closed_upper=True,
                                  lattice=True)
            total, _ = _support_integral(lambda k: tweedie_density(p, k * tau, mu, tau), counts)
            values[i] = min(total, 1.0)
    else:
        total = tweedie_zero_mass(p, mu, tau) if 1.0 < p < 2.0 else 0.0
        start = -math.inf if p == 0.0 else 1e-300
        for i, yi in enumerate(ys.tolist()):
            if p > 0.0 and yi < 0.0:
                values[i] = 0.0
                continue
            if yi > start:
                piece, _ = quad(lambda x: tweedie_density(p, x, mu, tau), start, yi, limit=200)
                total, start = total + piece, yi
            values[i] = min(total, 1.0)
    return float(values[0]) if np.ndim(y) == 0 else values


@dataclass(frozen=True)
class TweedieFamily:
    """A power-variance family indexed by p, with an EDM view."""

    p: float

    def __post_init__(self):
        _validate_p(self.p)

    @property
    def support(self) -> RealInterval:
        return tweedie_support(self.p)

    @property
    def mean_domain(self) -> RealInterval:
        return tweedie_mean_domain(self.p)

    @property
    def theta_domain(self) -> RealInterval:
        return tweedie_canonical_domain(self.p)

    def to_edm(self) -> EdmFamily:
        p = self.p
        classic = _classic_family(p)
        return EdmFamily(
            name=f"tweedie(p={self.p:g})",
            theta_domain=self.theta_domain,
            b=lambda th: _generator(p, th),
            b_prime=lambda th: _mean(p, th),
            b_double_prime=lambda th: _b_nth(p, 2, th),
            b_nth=lambda r, th: _b_nth(p, r, th),
            mean_domain=self.mean_domain,
            support=self.support,
            dispersion_domain=POSITIVE_REALS if classic is None else classic.dispersion_domain,
            exact_normalizer=None if p < 0.0 else lambda y, tau: _log_normalizer(p, y, tau),
            mean_inverse=lambda mu: _inverse_mean(p, mu),
            deviance_closed_form=lambda y, mu: _deviance(p, y, mu),
        )


def tweedie_family(p: float) -> TweedieFamily:
    return TweedieFamily(_validate_p(p))
