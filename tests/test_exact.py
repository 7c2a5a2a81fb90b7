"""Exact-backend oracle tests: pmf/cdf values, moments, mode, duality."""
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperberry import exact
from hyperberry.params import HypParams


def enumerate_pmf(params):
    """Independent brute-force pmf: direct binomial-coefficient ratio."""
    den = math.comb(params.N, params.n)
    return {
        k: Fraction(
            math.comb(params.M, k) * math.comb(params.N - params.M, params.n - k),
            den,
        )
        for k in range(params.support_min, params.support_max + 1)
    }


class TestParams:
    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            HypParams(n=1, M=0, N=4)
        with pytest.raises(ValueError):
            HypParams(n=4, M=2, N=4)
        with pytest.raises(ValueError):
            HypParams(n=0, M=2, N=4)
        with pytest.raises(TypeError):
            HypParams(n=1.0, M=2, N=4)

    def test_integer_types_accepted_as_int(self):
        p = HypParams(n=np.int64(30), M=np.uint16(50), N=np.int32(100))
        assert all(type(v) is int for v in (p.n, p.M, p.N))
        assert p == HypParams(30, 50, 100)
        assert hash(p) == hash(HypParams(30, 50, 100))
        for bad in (True, np.True_, 30.0, np.float64(30), "30"):
            with pytest.raises(TypeError):
                HypParams(n=bad, M=50, N=100)

    def test_derived_quantities(self):
        p = HypParams(n=100, M=100, N=200)
        assert p.p == 0.5 and p.f == 0.5
        assert p.sigma2_exact == Fraction(25, 2)
        assert p.sigma2 == 12.5

    def test_sigma2_factorizations(self):
        p = HypParams(n=30, M=50, N=100)
        s2 = p.sigma2_exact
        pe, qe, fe = p.p_exact, p.q_exact, p.f_exact
        assert s2 == p.n * pe * qe * (1 - fe)
        assert s2 == (p.N - p.n) * pe * qe * fe


class TestPmfCdf:
    def test_pmf_known_value(self):
        p = HypParams(2, 2, 4)
        assert exact.pmf_exact(p, 1).value == Fraction(2, 3)

    def test_out_of_support_is_zero(self):
        p = HypParams(2, 2, 4)
        assert exact.pmf_exact(p, 3).value == 0
        assert exact.pmf_exact(p, -1).value == 0

    def test_normalization(self):
        p = HypParams(2, 2, 4)
        total = sum(exact.pmf_exact(p, k).value for k in range(0, 3))
        assert total == 1

    def test_cdf_values(self):
        p = HypParams(2, 2, 4)
        assert exact.cdf_exact(p, 1).value == Fraction(5, 6)
        assert exact.cdf_exact(p, -1).value == 0
        assert exact.cdf_exact(p, 2).value == 1

    def test_cdf_matches_partial_sums(self):
        p = HypParams(7, 12, 40)
        pmf = enumerate_pmf(p)
        acc = Fraction(0)
        for k in range(p.support_min, p.support_max + 1):
            acc += pmf[k]
            assert exact.cdf_exact(p, k).value == acc

    def test_cdf_sf_complementarity(self):
        p = HypParams(9, 15, 50)
        for k in range(-1, p.support_max + 2):
            assert exact.cdf_exact(p, k).value + exact.sf_exact(p, k).value == 1

    def test_backend_agreement(self):
        for p in [HypParams(7, 12, 40), HypParams(150, 20, 200), HypParams(25, 25, 50)]:
            table = exact.log_pmf_table(p)
            for k in range(p.support_min, p.support_max + 1):
                r = float(exact.pmf_fraction(p, k))
                assert abs(math.exp(table.log_at(k)) - r) / r <= 1e-12

    def test_logspace_normalization(self):
        p = HypParams(600, 1000, 8000)
        table = exact.log_pmf_table(p)
        assert abs(table.total - 1.0) <= 1e-12

    def test_rational_log_below_float_range(self):
        # P(X = 0) = 1 / C(5000, 2500), about 1e-1504: no float holds it
        p = HypParams(2500, 2500, 5000)
        head = sum(math.comb(2500, j) ** 2 for j in range(4))
        with mpmath.workdps(50):
            log_den = mpmath.log(mpmath.binomial(5000, 2500))
            for prob, truth in (
                (exact.pmf_exact(p, 0), -log_den),
                (exact.cdf_exact(p, 3), mpmath.log(head) - log_den),
            ):
                assert prob.value > 0 and float(prob.value) == 0.0
                assert prob.log_value == pytest.approx(float(truth), rel=1e-12)

    def test_far_tail_logspace_pmf_outside_window(self):
        # the window is mode +/- 3.2e5 (40 sigma + 10); these k lie outside it
        p = HypParams(500_000_000, 500_000_000, 10**9)
        table = exact.log_pmf_table(p)
        assert table.hi - table.lo + 1 < 100 * p.sigma
        for k in (p.support_min, table.lo - 1, table.hi + 10**6, p.support_max - 7):
            assert not table.lo <= k <= table.hi
            log_value = exact.pmf_exact(p, k).log_value
            with mpmath.workdps(50):
                lg = mpmath.loggamma
                truth = (
                    lg(p.M + 1) - lg(k + 1) - lg(p.M - k + 1)
                    + lg(p.N - p.M + 1) - lg(p.n - k + 1) - lg(p.N - p.M - p.n + k + 1)
                    - lg(p.N + 1) + lg(p.n + 1) + lg(p.N - p.n + 1)
                )
            assert math.isfinite(log_value)
            assert log_value == pytest.approx(float(truth), rel=1e-9)

    def test_logspace_cdf_nearer_tail(self):
        p = HypParams(400, 400, 8000)
        # far upper tail via sf stays meaningful where 1 - cdf would cancel
        k = 60
        sf = float(exact.sf_exact(p, k, backend="logspace"))
        ref = float(
            sum(exact.pmf_fraction(p, j) for j in range(k + 1, p.support_max + 1))
        )
        assert 0 < sf < 1e-12
        assert sf == pytest.approx(ref, rel=1e-10)


class TestMoments:
    def test_small_instance(self):
        m = exact.moments(HypParams(2, 2, 4))
        assert m.mean == 1
        assert m.sigma2 == Fraction(1, 4)
        assert m.variance == Fraction(1, 3)

    def test_variance_by_enumeration(self):
        p = HypParams(7, 12, 40)
        pmf = enumerate_pmf(p)
        mean = sum(k * w for k, w in pmf.items())
        var = sum((k - mean) ** 2 * w for k, w in pmf.items())
        m = exact.moments(p)
        assert m.mean == mean
        assert m.variance == var
        assert m.sigma2 == var * Fraction(p.N - 1, p.N)

    def test_sigma2_direct_substitution(self):
        assert exact.moments(HypParams(100, 100, 200)).sigma2 == Fraction(25, 2)


class TestMode:
    @pytest.mark.parametrize(
        "params,expected",
        [
            (HypParams(2, 2, 4), 1),
            (HypParams(1, 1, 2), 0),
            (HypParams(10, 50, 100), 5),
        ],
    )
    def test_known_modes(self, params, expected):
        assert exact.mode(params) == expected

    @pytest.mark.parametrize(
        "params",
        [HypParams(7, 12, 40), HypParams(9, 30, 50), HypParams(60, 45, 90)],
    )
    def test_mode_is_smallest_argmax(self, params):
        pmf = enumerate_pmf(params)
        best = max(pmf.values())
        smallest = min(k for k, w in pmf.items() if w == best)
        assert exact.mode(params) == smallest

    def test_unimodality_threshold(self):
        params = HypParams(9, 30, 50)
        pmf = enumerate_pmf(params)
        t = exact.mode_threshold(params)
        for j in range(params.support_min, params.support_max):
            if j < t:
                assert pmf[j + 1] > pmf[j]
            elif j == t:
                assert pmf[j + 1] == pmf[j]
            else:
                assert pmf[j + 1] < pmf[j]


class TestDuality:
    def test_leftover_params(self):
        assert exact.dual_leftover(HypParams(2, 2, 4)) == HypParams(2, 2, 4)
        assert exact.dual_leftover(HypParams(30, 50, 100)) == HypParams(70, 50, 100)

    def test_reflect_params(self):
        assert exact.dual_reflect(HypParams(30, 50, 100)) == HypParams(30, 50, 100)
        assert exact.dual_reflect(HypParams(10, 20, 100)) == HypParams(10, 80, 100)

    def test_pointwise_identities(self):
        p = HypParams(30, 50, 100)
        y = exact.dual_leftover(p)
        assert exact.pmf_fraction(p, 10) == exact.pmf_fraction(y, 40)
        q = HypParams(10, 20, 100)
        v = exact.dual_reflect(q)
        assert exact.pmf_fraction(q, 3) == exact.pmf_fraction(v, 7)

    def test_sigma2_invariance(self):
        p = HypParams(30, 50, 100)
        assert exact.dual_leftover(p).sigma2_exact == p.sigma2_exact
        assert exact.dual_reflect(p).sigma2_exact == p.sigma2_exact

    @settings(max_examples=60, deadline=None)
    @given(
        N=st.integers(min_value=2, max_value=80),
        data=st.data(),
    )
    def test_duality_everywhere(self, N, data):
        M = data.draw(st.integers(min_value=1, max_value=N - 1))
        n = data.draw(st.integers(min_value=1, max_value=N - 1))
        p = HypParams(n=n, M=M, N=N)
        y = exact.dual_leftover(p)
        v = exact.dual_reflect(p)
        for j in range(p.support_min, p.support_max + 1):
            pj = exact.pmf_fraction(p, j)
            assert pj == exact.pmf_fraction(y, p.M - j)
            assert pj == exact.pmf_fraction(v, p.n - j)
