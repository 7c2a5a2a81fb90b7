"""The windowed lattice kernel against a whole-support reference.

The logspace table covers a window around the mode and the lattice profile
keeps four points outside it; the rational profile sums by an integer
recurrence.  Every result must equal, bit for bit, what the whole-support
computation gives.
"""
import math
import random
from itertools import accumulate

import numpy as np

from hyperberry import exact, lab
from hyperberry.bounds import ConstantSet, bound_profile
from hyperberry.grids import SweepGrid, rule_list
from hyperberry.params import HypParams


def whole_support_logpmf(params):
    """Log-pmf over the whole support by the mode-anchored recurrence."""
    n, M, N = params.n, params.M, params.N
    ks = np.arange(params.support_min, params.support_max + 1, dtype=np.int64)
    m = exact.mode(params)
    anchor = exact._log_binom_hp(M, m) + exact._log_binom_hp(N - M, n - m) - exact._log_binom_hp(N, n)
    kk = ks[:-1].astype(np.float64)
    logr = np.log(M - kk) + np.log(n - kk) - np.log(kk + 1.0) - np.log(N - M - n + kk + 1.0)
    i = m - params.support_min
    logpmf = np.full(ks.shape, anchor)
    logpmf[i + 1 :] += np.cumsum(logr[i:])
    logpmf[:i] -= np.cumsum(logr[:i][::-1])[::-1]
    return ks, logpmf


def whole_support_profile(params, backend=None):
    """``lab.lattice_profile`` over every support point: per-term binomials
    for the rational backend, the whole-support table for the logspace one."""
    n, M, N = params.n, params.M, params.N
    ks = np.arange(params.support_min, params.support_max + 1, dtype=np.int64)
    b = exact.choose_backend(params, backend)
    if b == "rational":
        den = math.comb(N, n)
        terms = (math.comb(M, k) * math.comb(N - M, n - k) for k in ks.tolist())
        F_at = np.array([c / den for c in accumulate(terms)])
        budget = 1e-15 * len(ks)
    else:
        pmf = np.exp(whole_support_logpmf(params)[1])
        F_at = np.minimum(np.cumsum(pmf), 1.0)
        budget = lab.LOGSPACE_EPS_PER_POINT * len(ks) + abs(1.0 - pmf.sum())
    x_tilde = (ks - n * M / N) / params.sigma
    F_left = np.concatenate(([0.0], F_at[:-1]))
    return lab.LatticeProfile(params, ks, x_tilde, F_at, F_left, budget, b)


# the acceptance battery's grids
BASE_GRID = SweepGrid(
    N_values=(50, 100, 200, 500, 1000, 2000),
    p_rule=rule_list(0.05, 0.1, 0.3, 0.5),
    f_rule=rule_list(0.05, 0.1, 0.3, 0.5),
).instances()
GATE_GRID = SweepGrid(
    N_values=(10000, 20000, 40000),
    p_rule=rule_list(0.2, 0.35, 0.5),
    f_rule=rule_list(0.2, 0.35, 0.5),
    require_gate=True,
).instances()


def _sample(count=40, seed=20261018):
    """Seeded instances, N up to ~3e5, p and f log-uniform down to 1e-3."""
    rng = random.Random(seed)
    out = [HypParams(1000, 1000, 10**6), HypParams(50_000, 50_000, 100_000)]
    while len(out) < count:
        N = round(10 ** rng.uniform(3.0, 5.5))
        M = min(N - 1, max(1, round(N * 10 ** rng.uniform(-3.0, math.log10(0.5)))))
        n = min(N - 1, max(1, round(N * 10 ** rng.uniform(-3.0, math.log10(0.5)))))
        M = N - M if rng.random() < 0.3 else M
        n = N - n if rng.random() < 0.3 else n
        out.append(HypParams(n, M, N))
    return out


SAMPLE = _sample()
CONSTANTS = (
    ConstantSet(C3=0.64, C4=0.004375),
    ConstantSet(C3=0.32, C4=0.07),
    ConstantSet(C3=671088.64, C4=0.00875),
)


def _results(instances):
    out = []
    for q in instances:
        for backend in (None, "logspace"):
            d = lab.delta_exact(q, backend)
            out.append((q, d.delta_sup, d.argmax_k, d.side, d.delta_times_sigma, d.backend))
        out.extend((q, lab.max_nonuniform_violation(q, c)) for c in CONSTANTS)
    return out


def _calibrations():
    gated = [q for q in SAMPLE if bound_profile(q).gate_ok]
    return [lab.calibrate_constants(train) for train in (GATE_GRID, GATE_GRID[0::2], gated)]


def test_table_window_holds_the_whole_support_values():
    doubled = 0
    for q in SAMPLE + GATE_GRID:
        table = exact.log_pmf_table(q)
        ks, logpmf = whole_support_logpmf(q)
        pmf = np.exp(logpmf)
        w = slice(table.lo - q.support_min, table.hi - q.support_min + 1)
        assert np.array_equal(table.ks, ks[w])
        assert np.array_equal(table.logpmf, logpmf[w])
        assert not pmf[: w.start].any() and not pmf[w.stop :].any()
        cdf = np.minimum(np.cumsum(pmf), 1.0)
        sf_incl = np.minimum(np.cumsum(pmf[::-1])[::-1], 1.0)
        assert np.array_equal(table.cdf, cdf[w]) and np.array_equal(table.sf_incl, sf_incl[w])
        for k in {q.support_min, table.lo - 1, table.lo, round(q.mean), table.hi, table.hi + 1, q.support_max - 1}:
            if not q.support_min <= k < q.support_max:
                continue
            lower, upper = cdf[k - q.support_min], sf_incl[k + 1 - q.support_min]
            assert table.cdf_at(k) == (lower if lower <= upper else 1.0 - upper)
            assert table.sf_at(k) == (upper if upper <= lower else 1.0 - lower)
        doubled += table.hi - exact.mode(q) > math.ceil(40 * q.sigma) + 10
    assert doubled > 0


def test_profile_results_equal_whole_support(monkeypatch):
    instances = BASE_GRID + GATE_GRID + SAMPLE
    windowed = _results(instances), _calibrations()
    monkeypatch.setattr(lab, "lattice_profile", whole_support_profile)
    reference = _results(instances), _calibrations()
    assert windowed == reference


def test_logspace_profile_keeps_window_and_four_outside_points():
    q = HypParams(50_000, 50_000, 100_000)
    table = exact.log_pmf_table(q)
    prof = lab.lattice_profile(q)
    outside = [q.support_min, table.lo - 1, table.hi + 1, q.support_max]
    assert prof.ks.tolist() == outside[:2] + table.ks.tolist() + outside[2:]
    assert prof.F_at[:2].tolist() == [0.0, 0.0]
    assert prof.F_at[-2:].tolist() == [table.cdf[-1]] * 2
    assert prof.error_budget >= lab.LOGSPACE_EPS_PER_POINT * q.support_size

