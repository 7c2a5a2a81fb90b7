"""Exact ground-truth oracle for the hypergeometric distribution.

Two backends:

* ``rational`` -- arbitrary-precision integers / fractions, for N up to
  :data:`RATIONAL_N_MAX`.  Used as the unimpeachable oracle everywhere the
  grid is small enough.
* ``logspace`` -- float log-probabilities for N up to ~1e9.  The log-pmf is
  computed with the ratio recurrence
  ``P(k+1)/P(k) = (M-k)(n-k) / ((k+1)(N-M-n+k+1))``
  anchored at the mode, where the anchor log-probability is evaluated with
  high-precision log-gamma.  This keeps tail values free of catastrophic
  cancellation; the accumulated relative error over a support sweep is
  bounded by roughly ``support_size * 1e-16``.  The table covers only a
  window around the mode, about 80 sigma wide, outside which every pmf value
  is 0.0 in double precision; log-probabilities beyond it come from the
  anchor formula at k itself.

k outside the support always yields probability zero rather than an error:
callers routinely evaluate at ``floor(n*p + x*sigma)`` which may fall off
the support edge.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

from .params import HypParams

#: Largest N served by the exact rational backend by default.
RATIONAL_N_MAX = 5000


@dataclass(frozen=True)
class ExactProb:
    """A probability from one of the two backends.

    ``value`` is an exact Fraction in the rational backend (``log_value`` is
    then its float log, -inf for zero).  In the logspace backend ``value`` is
    None and ``log_value`` carries the natural log of the probability.
    """

    backend: str
    value: Fraction | None
    log_value: float

    def __float__(self) -> float:
        if self.value is not None:
            return float(self.value)
        return math.exp(self.log_value)

    @property
    def as_float(self) -> float:
        return float(self)


def _rational(value: Fraction) -> ExactProb:
    if value == 0:
        log_value = -math.inf
    elif float(value) >= sys.float_info.min:
        log_value = math.log(float(value))
    else:
        # below the normal float range: logs of the exact integers stay finite
        log_value = math.log(value.numerator) - math.log(value.denominator)
    return ExactProb("rational", value, log_value)


def _logspace(log_value: float) -> ExactProb:
    return ExactProb("logspace", None, log_value)


def choose_backend(params: HypParams, backend: str | None = None) -> str:
    if backend is not None:
        if backend not in ("rational", "logspace"):
            raise ValueError(f"unknown backend {backend!r}")
        return backend
    return "rational" if params.N <= RATIONAL_N_MAX else "logspace"


# ---------------------------------------------------------------------------
# rational backend
# ---------------------------------------------------------------------------

def pmf_fraction(params: HypParams, k: int) -> Fraction:
    """Exact P(X = k) as a Fraction."""
    if not params.in_support(k):
        return Fraction(0)
    num = math.comb(params.M, k) * math.comb(params.N - params.M, params.n - k)
    return Fraction(num, math.comb(params.N, params.n))


def pmf_numerators(params: HypParams, k_max: int):
    """Yield C(M, k) * C(N-M, n-k) for k = support_min .. k_max.

    Exact integer ratio recurrence: the division is exact because each term
    is an integer, so the integers equal the per-term binomial products.
    """
    n, M, N = params.n, params.M, params.N
    k = params.support_min
    t = math.comb(M, k) * math.comb(N - M, n - k)
    while True:
        yield t
        if k >= k_max:
            return
        t = t * (M - k) * (n - k) // ((k + 1) * (N - M - n + k + 1))
        k += 1


def cdf_fraction(params: HypParams, k: int) -> Fraction:
    if k < params.support_min:
        return Fraction(0)
    if k >= params.support_max:
        return Fraction(1)
    return Fraction(sum(pmf_numerators(params, k)), math.comb(params.N, params.n))


# ---------------------------------------------------------------------------
# logspace backend
# ---------------------------------------------------------------------------

def _log_binom_hp(a: int, b: int) -> float:
    """log C(a, b) via high-precision log-gamma (anchor-quality accuracy)."""
    with mpmath.workdps(40):
        v = (
            mpmath.loggamma(a + 1)
            - mpmath.loggamma(b + 1)
            - mpmath.loggamma(a - b + 1)
        )
        return float(v)


#: the table window starts at mode +/- (ceil(WINDOW_SIGMAS * sigma) + WINDOW_PAD)
WINDOW_SIGMAS = 40
WINDOW_PAD = 10


def _log_pmf_anchor(params: HypParams, k: int) -> float:
    """log P(X = k) from three 40-digit log-binomials, each rounded to double."""
    n, M, N = params.n, params.M, params.N
    return _log_binom_hp(M, k) + _log_binom_hp(N - M, n - k) - _log_binom_hp(N, n)


def _window_logpmf(params: HypParams, m: int, anchor: float, ks: np.ndarray) -> np.ndarray:
    """Log-pmf over the consecutive ``ks`` by cumulative sums of the log
    ratio outward from the mode ``m``, whose log-pmf is ``anchor``."""
    n, M, N = params.n, params.M, params.N
    # log of P(k+1)/P(k) for k = ks[0] .. ks[-1]-1
    kk = ks[:-1].astype(np.float64)
    logr = (
        np.log(M - kk)
        + np.log(n - kk)
        - np.log(kk + 1.0)
        - np.log(N - M - n + kk + 1.0)
    )
    logpmf = np.empty(ks.shape, dtype=np.float64)
    i = m - int(ks[0])
    logpmf[i] = anchor
    logpmf[i + 1 :] = anchor + np.cumsum(logr[i:])
    logpmf[:i] = anchor - np.cumsum(logr[:i][::-1])[::-1]
    return logpmf


class LogPmfTable:
    """Log-pmf over a window [lo, hi] around the mode, mode-anchored recurrence.

    The window starts at mode +/- (ceil(40 sigma) + 10), clipped to the
    support, and doubles until each edge is a support end or a point whose
    pmf is 0.0 in double precision.  The cumulative sums only decrease the
    float log-pmf outward from the mode, so every pmf value beyond such an
    edge is 0.0 as well: the window arrays hold exactly the values, and the
    cumulative sums exactly the sums, that a whole-support table would hold
    at the same k.

    Exposes numpy arrays over the window: ``ks``, ``logpmf``, ``pmf``,
    ``cdf`` (lower cumulative) and ``sf_incl`` (upper cumulative including
    the point).
    """

    def __init__(self, params: HypParams):
        self.params = params
        m = mode(params)
        anchor = _log_pmf_anchor(params, m)
        width = math.ceil(WINDOW_SIGMAS * params.sigma) + WINDOW_PAD
        while True:
            lo = max(params.support_min, m - width)
            hi = min(params.support_max, m + width)
            ks = np.arange(lo, hi + 1, dtype=np.int64)
            logpmf = _window_logpmf(params, m, anchor, ks)
            pmf = np.exp(logpmf)
            if (lo == params.support_min or pmf[0] == 0.0) and (
                hi == params.support_max or pmf[-1] == 0.0
            ):
                break
            width *= 2
        self.lo, self.hi = lo, hi
        self.ks = ks
        self.logpmf = logpmf
        self.pmf = pmf
        self.cdf = np.minimum(np.cumsum(pmf), 1.0)
        self.sf_incl = np.minimum(np.cumsum(pmf[::-1])[::-1], 1.0)
        self.total = float(pmf.sum())

    def log_at(self, k: int) -> float:
        if not self.params.in_support(k):
            return -math.inf
        if self.lo <= k <= self.hi:
            return float(self.logpmf[k - self.lo])
        return _log_pmf_anchor(self.params, k)

    def _tails(self, k: int) -> tuple[float, float]:
        """(P(X <= k), P(X > k)) as accumulated from the lower and the upper
        support end; beyond the window the pmf adds only zeros."""
        i = k - self.lo
        lower = float(self.cdf[min(i, self.hi - self.lo)]) if k >= self.lo else 0.0
        upper = float(self.sf_incl[max(i + 1, 0)]) if k < self.hi else 0.0
        return lower, upper

    def cdf_at(self, k: int) -> float:
        """P(X <= k), summed from the nearer tail and complemented."""
        p = self.params
        if k < p.support_min:
            return 0.0
        if k >= p.support_max:
            return 1.0
        lower, upper = self._tails(k)
        # whichever tail is smaller was accumulated with less cancellation
        if lower <= upper:
            return lower
        return 1.0 - upper

    def sf_at(self, k: int) -> float:
        """P(X > k)."""
        p = self.params
        if k < p.support_min:
            return 1.0
        if k >= p.support_max:
            return 0.0
        lower, upper = self._tails(k)
        if upper <= lower:
            return upper
        return 1.0 - lower


@lru_cache(maxsize=64)
def _table(params: HypParams) -> LogPmfTable:
    return LogPmfTable(params)


def log_pmf_table(params: HypParams) -> LogPmfTable:
    return _table(params)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def pmf_exact(params: HypParams, k: int, backend: str | None = None) -> ExactProb:
    """Exact (or 1e-12-grade logspace) P(X = k); zero outside the support."""
    b = choose_backend(params, backend)
    if b == "rational":
        return _rational(pmf_fraction(params, k))
    return _logspace(_table(params).log_at(k))


def cdf_exact(params: HypParams, k: int, backend: str | None = None) -> ExactProb:
    """P(X <= k)."""
    b = choose_backend(params, backend)
    if b == "rational":
        return _rational(cdf_fraction(params, k))
    v = _table(params).cdf_at(k)
    return _logspace(-math.inf if v == 0.0 else math.log(v))


def sf_exact(params: HypParams, k: int, backend: str | None = None) -> ExactProb:
    """P(X > k), computed by summing the smaller tail."""
    b = choose_backend(params, backend)
    if b == "rational":
        return _rational(1 - cdf_fraction(params, k))
    v = _table(params).sf_at(k)
    return _logspace(-math.inf if v == 0.0 else math.log(v))


@dataclass(frozen=True)
class Moments:
    mean: Fraction
    variance: Fraction
    sigma2: Fraction


def moments(params: HypParams) -> Moments:
    """Exact mean, Var(X), and the scale sigma2 = N*p*q*f*(1-f).

    sigma2 equals (N-1)/N times the variance; both factorizations
    n*p*q*(1-f) and (N-n)*p*q*f agree with it exactly.
    """
    sigma2 = params.sigma2_exact
    variance = sigma2 * Fraction(params.N, params.N - 1)
    return Moments(mean=params.mean_exact, variance=variance, sigma2=sigma2)


def mode(params: HypParams) -> int:
    """Smallest maximizer of the pmf.

    The pmf is strictly increasing at j iff j < (M+1)(n+1)/(N+2) - 1, with
    equality exactly at the threshold (solving P(X=j+1) = P(X=j) for j), so
    the smallest maximizer is the ceiling of that threshold (clamped into
    the support).
    """
    m = math.ceil(mode_threshold(params))
    return max(params.support_min, min(params.support_max, m))


def mode_threshold(params: HypParams) -> Fraction:
    """The exact pmf-monotonicity threshold (M+1)(n+1)/(N+2) - 1."""
    n, M, N = params.n, params.M, params.N
    return Fraction((M + 1) * (n + 1), N + 2) - 1


def dual_leftover(params: HypParams) -> HypParams:
    """Parameters of Y = type-A count among the N-n unsampled objects.

    P(X = j) = P(Y = M - j) for all j, and Y has the same sigma2.
    """
    return HypParams(n=params.N - params.n, M=params.M, N=params.N)


def dual_reflect(params: HypParams) -> HypParams:
    """Parameters of V = n - X (type-B count in the sample).

    P(X = j) = P(V = n - j) for all j; on the standardized lattice
    (X - n*p)/sigma = -(V - n*q)/sigma.
    """
    return HypParams(n=params.n, M=params.N - params.M, N=params.N)
