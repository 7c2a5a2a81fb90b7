"""Parameter triple for sampling without replacement, with derived quantities.

Everything downstream (exact probabilities, certified enclosures, bound
evaluation) is a pure function of a ``HypParams`` instance, so the triple is
immutable and validated once at construction.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class HypParams:
    """Hypergeometric parameters: sample size n, type-A count M, population N.

    Requires 1 <= M < N and 1 <= n < N, which forces the proportion p = M/N,
    its complement q, and the sampling fraction f = n/N all strictly inside
    (0, 1), and the scale sigma2 = N*p*q*f*(1-f) strictly positive.
    """

    n: int
    M: int
    N: int

    def __post_init__(self) -> None:
        for name in ("n", "M", "N"):
            value = getattr(self, name)
            if type(value) is int:
                continue
            try:
                index = None if isinstance(value, bool) else operator.index(value)
            except TypeError:
                index = None
            if index is None:
                raise TypeError(f"{name} must be an integer, got {value!r}")
            # numpy integers and other integer types are stored as plain int
            object.__setattr__(self, name, index)
        if not 1 <= self.M < self.N:
            raise ValueError(f"require 1 <= M < N, got M={self.M}, N={self.N}")
        if not 1 <= self.n < self.N:
            raise ValueError(f"require 1 <= n < N, got n={self.n}, N={self.N}")

    # ---- float views -------------------------------------------------

    @property
    def p(self) -> float:
        return self.M / self.N

    @property
    def q(self) -> float:
        return (self.N - self.M) / self.N

    @property
    def f(self) -> float:
        return self.n / self.N

    @property
    def npq(self) -> float:
        """n*p*q computed as a single ratio to avoid intermediate rounding."""
        return self.n * self.M * (self.N - self.M) / (self.N * self.N)

    @property
    def sigma2(self) -> float:
        return float(self.sigma2_exact)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def mean(self) -> float:
        return self.n * self.M / self.N

    # ---- exact rational views ----------------------------------------

    @property
    def p_exact(self) -> Fraction:
        return Fraction(self.M, self.N)

    @property
    def q_exact(self) -> Fraction:
        return Fraction(self.N - self.M, self.N)

    @property
    def f_exact(self) -> Fraction:
        return Fraction(self.n, self.N)

    @property
    def sigma2_exact(self) -> Fraction:
        """N*p*q*f*(1-f) as an exact rational."""
        n, M, N = self.n, self.M, self.N
        return Fraction(M * (N - M) * n * (N - n), N**3)

    @property
    def mean_exact(self) -> Fraction:
        return Fraction(self.n * self.M, self.N)

    # ---- support -----------------------------------------------------

    @property
    def support_min(self) -> int:
        return max(0, self.n - (self.N - self.M))

    @property
    def support_max(self) -> int:
        return min(self.n, self.M)

    def in_support(self, k: int) -> bool:
        return self.support_min <= k <= self.support_max

    @property
    def support_size(self) -> int:
        return self.support_max - self.support_min + 1

    @property
    def instance_id(self) -> str:
        return f"n{self.n}-M{self.M}-N{self.N}"
