"""Reference values the benchmark checks the library against.

These are written from the definitions, not through the library, and run
outside the timed region:

* ``log_pmf_mp`` -- log P(X = k) from 50-digit mpmath log-gamma;
* ``Window`` -- pmf, cdf and upper tail over mode +/- 40 sigma from a
  50-digit anchor and the float ratio recurrence.  The mass outside the
  window is below 1e-300, so it serves as a cdf/tail/Kolmogorov-distance
  reference at any N without touching the whole support.
"""
from __future__ import annotations

import math
from collections import OrderedDict
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

WINDOW_SIGMAS = 40


def support(n: int, M: int, N: int) -> tuple[int, int]:
    return max(0, n - (N - M)), min(n, M)


def sigma(n: int, M: int, N: int) -> float:
    return math.sqrt(M * (N - M) * n * (N - n) / N**3)


def mode(n: int, M: int, N: int) -> int:
    lo, hi = support(n, M, N)
    m = math.ceil(Fraction((M + 1) * (n + 1), N + 2) - 1)
    return max(lo, min(hi, m))


@lru_cache(maxsize=256)
def _log_pmf_constant(n: int, M: int, N: int) -> mpmath.mpf:
    """The k-free part of log P(X = k) at 50 digits."""
    with mpmath.workdps(50):
        lg = mpmath.loggamma
        return lg(M + 1) + lg(N - M + 1) - lg(N + 1) + lg(n + 1) + lg(N - n + 1)


def log_pmf_mp(n: int, M: int, N: int, k: int) -> mpmath.mpf:
    """log P(X = k) at 50 digits; -inf outside the support."""
    lo, hi = support(n, M, N)
    if not lo <= k <= hi:
        return mpmath.mpf("-inf")
    with mpmath.workdps(50):
        lg = mpmath.loggamma
        return (
            _log_pmf_constant(n, M, N)
            - lg(k + 1) - lg(M - k + 1) - lg(n - k + 1) - lg(N - M - n + k + 1)
        )


def pmf_mp(n: int, M: int, N: int, k: int) -> mpmath.mpf:
    with mpmath.workdps(50):
        return mpmath.exp(log_pmf_mp(n, M, N, k))


def pmf_exact_fraction(n: int, M: int, N: int, k: int) -> Fraction:
    lo, hi = support(n, M, N)
    if not lo <= k <= hi:
        return Fraction(0)
    return Fraction(math.comb(M, k) * math.comb(N - M, n - k), math.comb(N, n))


def float_budget(n: int, M: int, N: int, m: int, support: int) -> float:
    """Absolute error a float64 log-space cdf may carry at this instance.

    The library's lattice profile declares 1e-15 per support point plus
    |1 - total mass|; the second term is set by the float rounding of an
    anchor built from three log-binomials, each rounded to double, which
    is at most a few ulps of their magnitudes.  Estimated here from the
    instance alone so checking costs no second lattice scan.
    """
    return 1e-15 * support + anchor_budget(n, M, N, m)


@lru_cache(maxsize=256)
def anchor_budget(n: int, M: int, N: int, m: int) -> float:
    """Absolute error of a log-pmf anchor at mode m summed from three
    log-binomials, each rounded to double: 4 ulps of their magnitudes."""
    with mpmath.workdps(30):
        lb = lambda a, b: abs(mpmath.loggamma(a + 1) - mpmath.loggamma(b + 1) - mpmath.loggamma(a - b + 1))
        magnitude = float(lb(M, m) + lb(N - M, n - m) + lb(N, n))
    return 4 * 2.0**-53 * magnitude


def phi_cdf_mp(x: float) -> float:
    with mpmath.workdps(30):
        return float(mpmath.ncdf(x))


class Window:
    """pmf over [mode - 40 sigma, mode + 40 sigma] clipped to the support."""

    def __init__(self, n: int, M: int, N: int):
        self.n, self.M, self.N = n, M, N
        smin, smax = support(n, M, N)
        s = sigma(n, M, N)
        m = mode(n, M, N)
        width = math.ceil(WINDOW_SIGMAS * s) + 10
        self.lo, self.hi = max(smin, m - width), min(smax, m + width)
        ks = np.arange(self.lo, self.hi + 1, dtype=np.float64)
        # log P(k+1)/P(k) for k = lo .. hi-1
        kk = ks[:-1]
        logr = np.log((M - kk) * (n - kk)) - np.log((kk + 1.0) * (N - M - n + kk + 1.0))
        anchor = float(log_pmf_mp(n, M, N, m))
        i = m - self.lo
        logpmf = np.empty_like(ks)
        logpmf[i] = anchor
        logpmf[i + 1:] = anchor + np.cumsum(logr[i:])
        logpmf[:i] = anchor - np.cumsum(logr[:i][::-1])[::-1]
        self.ks = ks
        self.pmf = np.exp(logpmf)
        self.lower = np.cumsum(self.pmf)                 # P(X <= k)
        self.upper = np.cumsum(self.pmf[::-1])[::-1]     # P(X >= k)
        self.mean = n * M / N
        self.sigma = s
        self.budget = float_budget(n, M, N, m, smax - smin + 1)

    def cdf(self, k: int) -> float:
        """P(X <= k), from whichever tail is smaller."""
        if k < self.lo:
            return 0.0
        if k >= self.hi:
            return 1.0
        i = k - self.lo
        lower, upper = float(self.lower[i]), float(self.upper[i + 1])
        return lower if lower <= upper else 1.0 - upper

    def sf(self, k: int) -> float:
        """P(X > k), from whichever tail is smaller."""
        if k < self.lo:
            return 1.0
        if k >= self.hi:
            return 0.0
        i = k - self.lo
        lower, upper = float(self.lower[i]), float(self.upper[i + 1])
        return upper if upper <= lower else 1.0 - lower

    def tail_two_sided(self, x: float) -> float:
        """P(|X - mean| / sigma >= x)."""
        left_k = math.floor(self.mean - x * self.sigma)
        right_k = math.ceil(self.mean + x * self.sigma)
        left = 0.0 if left_k < self.lo else float(self.lower[min(left_k, self.hi) - self.lo])
        right = 0.0 if right_k > self.hi else float(self.upper[max(right_k, self.lo) - self.lo])
        return left + right

    def kolmogorov(self) -> float:
        """sup_x |F(x) - Phi(x)| over the lattice jumps (at-point and left limit)."""
        from scipy.special import ndtr

        x = (self.ks - self.mean) / self.sigma
        Phi = ndtr(x)
        F_at = np.minimum(self.lower, 1.0)
        F_left = np.concatenate(([0.0], F_at[:-1]))
        return float(max(np.max(np.abs(F_at - Phi)), np.max(np.abs(F_left - Phi))))


class Windows:
    """The most recently used windows, keyed by HypParams (at most ``limit``)."""

    def __init__(self, limit: int = 64):
        self.limit = limit
        self.cache: OrderedDict = OrderedDict()

    def __call__(self, params) -> Window:
        w = self.cache.get(params)
        if w is None:
            if len(self.cache) >= self.limit:
                self.cache.popitem(last=False)
            w = self.cache[params] = Window(params.n, params.M, params.N)
        else:
            self.cache.move_to_end(params)
        return w
