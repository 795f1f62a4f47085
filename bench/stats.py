"""Percentiles and the rule for which of them a sample count supports."""

from __future__ import annotations

from math import exp, lgamma, log, log1p

# Percentiles the benchmark may report, highest last.
PERCENTILES = (50, 90, 99, 99.9)
MIN_BEYOND = 10


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    result = d
    for m in range(1, 10000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            result *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return result


def _regularized_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the Beta(a, b) distribution function at x."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = exp(lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile, 0 < q < 100.

    A weighted mean of all order statistics, the weights being the Beta
    ((n+1)p, (n+1)(1-p)) probabilities of each slot (Harrell and Davis,
    Biometrika 69, 1982). On a few samples it moves far less from run to run
    than one or two order statistics do; on many it agrees with them.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a = (n + 1) * q / 100
    b = (n + 1) * (1 - q / 100)
    total = 0.0
    below = 0.0
    for i, value in enumerate(ordered, start=1):
        upto = _regularized_beta(a, b, i / n)
        total += (upto - below) * value
        below = upto
    return total


def reportable(count: int) -> list[float]:
    """Percentiles with at least MIN_BEYOND samples above them.

    The median is always reported; a higher percentile q only when
    count * (1 - q/100) >= MIN_BEYOND, e.g. p90 from 100 samples on.
    """
    return [50] + [
        q for q in PERCENTILES[1:] if count * (100 - q) / 100 >= MIN_BEYOND - 1e-9
    ]
