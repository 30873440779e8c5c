"""A 30-digit reference for ``tweedie._fourier_inversion``, kept apart from the test modules so that
worker processes import mpmath alone."""

import mpmath


def quadosc_inversion(p, y, mu, tau, cdf):
    """``tweedie._fourier_inversion`` by ``mpmath.quadosc`` at 30 digits, on the same centred cf."""
    with mpmath.workdps(30):
        p, y, mu, tau = map(mpmath.mpf, (p, y, mu, tau))
        alpha, sigma, theta = (p - 2) / (p - 1), mpmath.sqrt(tau * mu**p), mu ** (1 - p) / (1 - p)
        scale, c = ((1 - p) * theta) ** alpha / (2 - p) / tau, tau / (sigma * theta)
        omega, shift = y / sigma, mu / sigma

        def integrand(s):  # Re[h(s) phi_c(s) e^(-i(y - mu)s/sigma)], h = 1 or i/s
            if not s:
                return shift - omega if cdf else mpmath.one
            modulus = (1 + (c * s) ** 2) ** (alpha / 2)
            cosine, sine = mpmath.cos_sin(alpha * mpmath.atan(c * s))
            amplitude = mpmath.exp(scale * (modulus * cosine - 1))
            phase = scale * modulus * sine - omega * s
            return -amplitude * mpmath.sin(phase) / s if cdf else amplitude * mpmath.cos(phase)

        return float(mpmath.quadosc(integrand, [0, mpmath.inf], omega=omega))
