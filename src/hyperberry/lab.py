"""Verification lab: exact Kolmogorov distances by lattice enumeration,
constant calibration/validation, optimality and CLT experiments, and the
duality suite.

The standardized distribution function F is a step function jumping only at
the lattice points (k - n*p)/sigma, while the normal cdf is continuous and
strictly increasing, so sup_x |F(x) - Phi(x)| is attained at a jump point,
from the left or at the point.  The lab computes the sup as a max over those
candidates -- exact, no x-scanning.  The logspace profile keeps only the
table window around the mode and four points outside it (see
``lattice_profile``), so its cost grows with sigma, not with the support.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from . import exact
from .bounds import ConstantSet, bound_profile, lambda_weight
from .gaussian import Phi
from .params import HypParams

#: float-error budget (per support point) charged to the logspace backend.
LOGSPACE_EPS_PER_POINT = 1e-15


class BudgetError(RuntimeError):
    """Logspace error budget is not safely below the quantity of interest."""


class CalibrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class DeltaReport:
    params: HypParams
    delta_sup: float
    argmax_k: int
    side: str                  # "at-point" | "left-limit"
    delta_times_sigma: float
    backend: str


@dataclass(frozen=True)
class LatticeProfile:
    """Per-instance arrays backing both delta_exact and calibration.

    The rational profile covers the whole support.  The logspace profile
    covers the table window plus at most four points outside it, in
    ascending k: the support ends and the window's outer neighbours.
    Outside the window F is 0 on the left and F(window end) on the right,
    Phi is 0 or 1 in double precision, and every quantity maximized over
    the profile is monotone or has a single valley in x**2 there, so its
    max over the whole support is attained at one of the kept points.
    """

    params: HypParams
    ks: np.ndarray
    x_tilde: np.ndarray        # (k - n*p)/sigma at each kept lattice point
    F_at: np.ndarray           # F(x_tilde_k) = P(X <= k)
    F_left: np.ndarray         # left limit, P(X <= k-1)
    error_budget: float
    backend: str


def lattice_profile(params: HypParams, backend: str | None = None) -> LatticeProfile:
    b = exact.choose_backend(params, backend)
    lo, hi = params.support_min, params.support_max
    if b == "rational":
        ks = np.arange(lo, hi + 1, dtype=np.int64)
        den = math.comb(params.N, params.n)
        F_at = np.array([c / den for c in accumulate(exact.pmf_numerators(params, hi))])
        budget = 1e-15 * len(ks)  # float conversion only; sums are exact
    else:
        table = exact.log_pmf_table(params)
        left = sorted({lo, table.lo - 1}) if table.lo > lo else []
        right = sorted({table.hi + 1, hi}) if table.hi < hi else []
        ks = np.concatenate(
            (np.array(left, dtype=np.int64), table.ks, np.array(right, dtype=np.int64))
        )
        F_at = np.concatenate(
            (np.zeros(len(left)), table.cdf, np.full(len(right), table.cdf[-1]))
        )
        budget = LOGSPACE_EPS_PER_POINT * params.support_size + abs(1.0 - table.total)
    mean = params.n * params.M / params.N
    x_tilde = (ks - mean) / params.sigma
    F_left = np.empty_like(F_at)
    F_left[0] = 0.0
    F_left[1:] = F_at[:-1]
    return LatticeProfile(
        params=params,
        ks=ks,
        x_tilde=x_tilde,
        F_at=F_at,
        F_left=F_left,
        error_budget=budget,
        backend=b,
    )


def _phi_vec(x: np.ndarray) -> np.ndarray:
    from scipy.special import ndtr

    return ndtr(x)


def _delta_from_profile(prof: LatticeProfile) -> DeltaReport:
    """Sup and argmax of |F - Phi| over the jumps of an existing profile."""
    Phi_k = _phi_vec(prof.x_tilde)
    dev_at = np.abs(prof.F_at - Phi_k)
    dev_left = np.abs(prof.F_left - Phi_k)
    i_at = int(np.argmax(dev_at))
    i_left = int(np.argmax(dev_left))
    if dev_at[i_at] >= dev_left[i_left]:
        i, side, sup = i_at, "at-point", float(dev_at[i_at])
    else:
        i, side, sup = i_left, "left-limit", float(dev_left[i_left])
    if prof.backend == "logspace" and sup < 10.0 * prof.error_budget:
        raise BudgetError(
            f"logspace error budget {prof.error_budget:.3g} is not an order "
            f"of magnitude below delta {sup:.3g}"
        )
    return DeltaReport(
        params=prof.params,
        delta_sup=sup,
        argmax_k=int(prof.ks[i]),
        side=side,
        delta_times_sigma=sup * prof.params.sigma,
        backend=prof.backend,
    )


def delta_exact(params: HypParams, backend: str | None = None) -> DeltaReport:
    """Exact sup_x |F(x) - Phi(x)| via the lattice-jump characterization."""
    return _delta_from_profile(lattice_profile(params, backend))


def delta_star_at(params: HypParams, x: float, backend: str | None = None) -> float:
    """Signed deviation P((X - n*p)/sigma <= x) - Phi(x)."""
    mean = params.n * params.M / params.N
    J = math.floor(mean + x * params.sigma)
    F = float(exact.cdf_exact(params, J, backend))
    return F - Phi(x)


def tail_two_sided(params: HypParams, x: float, backend: str | None = None) -> float:
    """Exact P(|X - n*p| / sigma >= x) for x > 0, via the two one-sided tails."""
    if not x > 0:
        raise ValueError(f"x must be positive, got {x}")
    mean = params.n * params.M / params.N
    left_k = math.floor(mean - x * params.sigma)
    # smallest k with k >= mean + x*sigma
    right_k = math.ceil(mean + x * params.sigma)
    left = float(exact.cdf_exact(params, left_k, backend))
    right = float(exact.sf_exact(params, right_k - 1, backend))
    return left + right


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

#: deterministic search lattices, seeded by the proof's 0.07 exponent rate.
C4_LATTICE = tuple(0.07 * 2.0**-j for j in range(21))
C3_LATTICE = tuple(0.01 * 2.0**i for i in range(31))
C6_LATTICE = C4_LATTICE
C5_LATTICE = C3_LATTICE

TAIL_X_GRID = (0.5, 1.0, 2.0, 3.0, 5.0)


def _nonuniform_required_prefactor(
    profiles: list[LatticeProfile], c4: float
) -> float:
    """Smallest C3 making the non-uniform bound hold at every lattice jump
    (both one-sided deviations) of every profile, for the given C4."""
    worst = 0.0
    for prof in profiles:
        p = prof.params
        sigma = p.sigma
        Phi_k = _phi_vec(prof.x_tilde)
        lam = np.where(
            prof.x_tilde < 0,
            p.q,
            np.where(prof.x_tilde > 0, p.p, min(p.p, p.q)),
        )
        x2 = prof.x_tilde**2
        for F in (prof.F_at, prof.F_left):
            dev = np.abs(F - Phi_k)
            mask = dev > 0
            if not mask.any():
                continue
            log_req = (
                np.log(dev[mask])
                + math.log(sigma)
                + np.log(lam[mask])
                - np.log1p(x2[mask])
                + c4 * x2[mask] * lam[mask] ** 2
            )
            m = float(np.max(log_req))
            if m > 700.0:
                return math.inf
            worst = max(worst, math.exp(m))
    return worst


def _tail_required_prefactor(
    instances: list[HypParams],
    tails: dict[HypParams, list[float]],
    x_grid: tuple[float, ...],
    c6: float,
) -> float:
    worst = 0.0
    for params in instances:
        mpq = min(params.p, params.q)
        for x, t in zip(x_grid, tails[params]):
            if t <= 0:
                continue
            log_req = math.log(t) + 3.0 * math.log(mpq) + c6 * x * x * mpq * mpq
            if log_req > 700.0:
                return math.inf
            worst = max(worst, math.exp(log_req))
    return worst


def _pick_lattice_value(lattice: tuple[float, ...], required: float) -> float | None:
    for v in lattice:  # ascending
        if v >= required:
            return v
    return None


def calibrate_constants(
    train: list[HypParams],
    grid_description: str = "",
    tail_x_grid: tuple[float, ...] = TAIL_X_GRID,
    timestamp: str | None = None,
) -> ConstantSet:
    """Fit C1..C6 as the extremal ratios over the training instances.

    C1/C2 are the max/min of delta*sigma.  (C3, C4) is the pair on the
    declared search lattice with the largest C4 (strongest decay) admitting
    a lattice C3, and the smallest such C3; (C5, C6) analogously for the
    two-sided tail inequality.  Deterministic: identical inputs give an
    identical ConstantSet.
    """
    if not train:
        raise CalibrationError("empty training grid")
    for params in train:
        if not bound_profile(params).gate_ok:
            raise CalibrationError(
                f"training instance {params.instance_id} fails the "
                "delta*sigma > 1 gate"
            )
    profiles = [lattice_profile(p) for p in train]
    ds = [_delta_from_profile(prof) for prof in profiles]
    c1 = max(d.delta_times_sigma for d in ds)
    c2 = min(d.delta_times_sigma for d in ds)

    c3 = c4 = None
    for cand_c4 in C4_LATTICE:  # descending
        required = _nonuniform_required_prefactor(profiles, cand_c4)
        cand_c3 = _pick_lattice_value(C3_LATTICE, required)
        if cand_c3 is not None:
            c3, c4 = cand_c3, cand_c4
            break
    if c3 is None:
        raise CalibrationError("no (C3, C4) pair on the search lattice works")

    tails = {
        p: [tail_two_sided(p, x) for x in tail_x_grid] for p in train
    }
    c5 = c6 = None
    for cand_c6 in C6_LATTICE:
        required = _tail_required_prefactor(train, tails, tail_x_grid, cand_c6)
        cand_c5 = _pick_lattice_value(C5_LATTICE, required)
        if cand_c5 is not None:
            c5, c6 = cand_c5, cand_c6
            break
    if c5 is None:
        raise CalibrationError("no (C5, C6) pair on the search lattice works")

    return ConstantSet(
        C1=c1,
        C2=c2,
        C3=c3,
        C4=c4,
        C5=c5,
        C6=c6,
        provenance={name: "calibrated" for name in ("C1", "C2", "C3", "C4", "C5", "C6")},
        calibration_grid=grid_description,
        timestamp=timestamp,
    )


def max_nonuniform_violation(params: HypParams, consts: ConstantSet) -> float:
    """max over lattice jumps of |deviation| - bound; <= 0 means the bound holds."""
    consts.require("C3", "C4")
    prof = lattice_profile(params)
    p = params
    Phi_k = _phi_vec(prof.x_tilde)
    lam = np.where(
        prof.x_tilde < 0, p.q, np.where(prof.x_tilde > 0, p.p, min(p.p, p.q))
    )
    x2 = prof.x_tilde**2
    bound = (
        consts.C3 / p.sigma * (1.0 + x2) / lam * np.exp(-consts.C4 * x2 * lam**2)
    )
    worst = -math.inf
    for F in (prof.F_at, prof.F_left):
        worst = max(worst, float(np.max(np.abs(F - Phi_k) - bound)))
    return worst


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimalityReport:
    rows: tuple[tuple[str, float, float, float], ...]  # (id, sigma, delta, delta*sigma)
    min_delta_sigma: float
    max_delta_sigma: float


def optimality_check(instances: list[HypParams]) -> OptimalityReport:
    """delta*sigma over the grid; a positive floor evidences the O(1/sigma)
    rate being tight (lattice span 1/sigma forces delta >~ 1/sigma)."""
    rows = []
    for params in instances:
        d = delta_exact(params)
        rows.append(
            (params.instance_id, params.sigma, d.delta_sup, d.delta_times_sigma)
        )
    values = [r[3] for r in rows]
    return OptimalityReport(
        rows=tuple(rows),
        min_delta_sigma=min(values),
        max_delta_sigma=max(values),
    )


@dataclass(frozen=True)
class CltExperimentRow:
    params: HypParams
    sigma2: float
    delta: float


@dataclass(frozen=True)
class CltExperimentReport:
    rows: tuple[CltExperimentRow, ...]
    sigma2_diverging: bool        # sigma2 strictly increasing along trajectory
    delta_decreasing: bool
    delta_min: float
    delta_max: float


def clt_experiment(trajectory: list[HypParams]) -> CltExperimentReport:
    """Pairs (N, sigma2, delta) along a trajectory: diverging sigma2 should
    drive delta down; a sigma2-bounded trajectory keeps delta bounded away
    from zero."""
    if not trajectory:
        raise ValueError("empty trajectory")
    rows = tuple(
        CltExperimentRow(
            params=p, sigma2=p.sigma2, delta=delta_exact(p).delta_sup
        )
        for p in trajectory
    )
    sig = [r.sigma2 for r in rows]
    deltas = [r.delta for r in rows]
    return CltExperimentReport(
        rows=rows,
        sigma2_diverging=all(b > a for a, b in zip(sig, sig[1:])),
        delta_decreasing=all(b < a for a, b in zip(deltas, deltas[1:])),
        delta_min=min(deltas),
        delta_max=max(deltas),
    )


@dataclass(frozen=True)
class DualityReport:
    checked: int
    violations: tuple[str, ...]


def duality_suite(instances: list[HypParams]) -> DualityReport:
    """Exact pmf identities under both transforms, plus sup-distance
    invariance under reflection (the lattice maps x to -x)."""
    violations: list[str] = []
    for params in instances:
        if params.N > exact.RATIONAL_N_MAX:
            violations.append(f"{params.instance_id}: rational backend unavailable")
            continue
        y = exact.dual_leftover(params)
        v = exact.dual_reflect(params)
        for j in range(params.support_min, params.support_max + 1):
            pj = exact.pmf_fraction(params, j)
            if pj != exact.pmf_fraction(y, params.M - j):
                violations.append(f"{params.instance_id}: leftover pmf at j={j}")
            if pj != exact.pmf_fraction(v, params.n - j):
                violations.append(f"{params.instance_id}: reflect pmf at j={j}")
        dx = delta_exact(params, backend="rational").delta_sup
        dv = delta_exact(v, backend="rational").delta_sup
        if abs(dx - dv) > 1e-12:
            violations.append(
                f"{params.instance_id}: reflected sup {dv!r} != {dx!r}"
            )
    return DualityReport(checked=len(instances), violations=tuple(violations))
