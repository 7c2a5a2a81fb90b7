"""The benchmark's three workloads.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returns.  Work comes in *units* (a block of
point queries, one calibrate-then-validate pass, one CLI command); a run
executes whole units until ``--seconds`` have passed, so every run has the
same operation mix whatever its length.  Throughput and CPU per operation
are medians over these units.

Inputs come from ``--seed`` only.  Continuous choices (population size,
proportions, lattice point) are drawn from Kronecker sequences
``frac(offset + i * alpha)`` with seeded offsets rather than from
independent draws: each run then covers the input ranges evenly, and the
cost of a run does not depend on whether the seed happened to draw many
expensive instances.  The seed still decides every concrete instance.

Held-out seed: seeds 1-210 were used while the benchmark was built, and no
choice was made on seed 1009; confirm a performance claim on it as well.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

#: frac(sqrt(prime)) -- irrational, pairwise independent over the rationals
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89)
_ALPHAS = tuple(math.sqrt(p) % 1.0 for p in _PRIMES)


class Kronecker:
    """Quasi-random points in [0, 1)^dims with seeded offsets."""

    def __init__(self, rng: random.Random, first_dim: int, dims: int):
        self.alphas = _ALPHAS[first_dim:first_dim + dims]
        self.offsets = [rng.random() for _ in range(dims)]

    def __call__(self, i: int) -> list[float]:
        return [(o + i * a) % 1.0 for o, a in zip(self.offsets, self.alphas)]


#: support size above which the logspace table refuses with "exceeds logspace
#: table cap" (``exact.LogPmfTable.MAX_SUPPORT``, ROADMAP item 2)
TABLE_CAP = 20_000_000


def beyond_table_cap(params) -> bool:
    """True when the instance's support exceeds the documented table cap."""
    return params is not None and params.support_max - params.support_min + 1 > TABLE_CAP


def log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


@dataclass
class Op:
    """One operation: what to call, on what, and what to expect."""

    kind: str
    params: object = None          # HypParams, or None for CLI operations
    arg: object = None             # k, x, (k, delta) or argv
    expect_refusal: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        p = self.params
        return f"{p.instance_id}" if p is not None else ""


def wrong(message: str) -> tuple[str, str]:
    """An exact or certified output that is not what it must be."""
    return "wrong", message


def inaccurate(message: str) -> tuple[str, str]:
    """A float output outside its documented accuracy."""
    return "inaccurate", message


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


# ---------------------------------------------------------------------------
# point_queries
# ---------------------------------------------------------------------------

class PointQueries:
    """Seeded stream of library point queries.

    Why: the ``exact`` layer does almost all of the work here -- the rational
    sums for N <= 5000 and the anchor, table build and table cache above.
    A fixed share of the queries goes to a hot set of 8 logspace instances
    and the rest to fresh instances, so the distinct logspace instances soon
    outnumber the 64-entry table cache while the hot set keeps hitting it.
    This is the only workload where table reuse matters, so a point-query or
    cache change must show here.

    A block has 30 operations: one on each of 4 hot instances (the two
    halves of the hot set take turns), one on each of 25 fresh instances
    (log10 N stratified over [2, 9], so about a quarter are rational) and a
    certify call planted outside the applicability window (an expected
    refusal).  Fewer than half the queries are fast -- cache hits, certify
    calls and small rational sums -- so the median query is a cold one,
    anchor and table build, inside a dense stretch of the latency
    distribution.  Microsecond cache hits, run between table builds that
    flush the CPU caches, are the operations a busy neighbour on a shared
    host slows most, and a median among them moved with it.

    Probes, run once after the timed region: every table-backed query on
    balanced N = 1e8 and N = 1e9, whose supports exceed the 2e7 logspace
    table cap.  Today they are refused with the cap error (counted in
    ``exact.cap_refusals``); once the cap goes their answers are checked
    like any other.  They stay out of the timed stream so that lifting the
    cap, which turns an instant refusal into real work, does not read as a
    slowdown.

    Fresh supports stay below 2e5 points so the 64 cached tables hold at
    most a few hundred MB.
    """

    name = "point_queries"
    unit_name = "block"
    #: the top 3 % are the costliest rational sums and table builds
    tail_percentile = 97.0
    stretches = 1
    digest_units = 4
    trace_units = 100
    KINDS = ("pmf", "cdf", "sf", "certify", "tail", "delta_star")
    TABLE_KINDS = ("pmf", "cdf", "sf", "tail", "delta_star")
    HOT = 8
    FRESH = 25
    S_MAX = 200_000
    PREGENERATED = 600

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"point_queries/{seed}")
        self.inst_seq = Kronecker(rng, 0, 6)
        self.op_seq = Kronecker(rng, 6, 3)
        self.hot_seq = Kronecker(rng, 9, 6)
        self.shuffle_seed = rng.random()
        self.op_counter = 0
        self.blocks: list[list[Op]] = []
        #: accuracy the checks measure but do not gate on (see ``check``)
        self.findings = {"exact.pmf_rel_err_max": 0.0}

    # -- input generation --------------------------------------------------

    def _instance(self, u: list[float], log_n_range: tuple[float, float]):
        log_n = log_n_range[0] + u[0] * (log_n_range[1] - log_n_range[0])
        N = max(100, round(10**log_n))
        s_hi = max(10, min(self.S_MAX, N // 2))
        s_lo = min(30, s_hi)
        s = round(log_uniform(u[1], s_lo, s_hi))
        r_lo = max(s / N, min(0.5, 12.0 / s))
        r = log_uniform(u[2], r_lo, 0.5)
        big = min(N // 2, max(s, round(r * N)))
        n, M = (s, big) if u[3] < 0.5 else (big, s)
        if u[4] < 0.3:
            M = N - M
        if u[5] < 0.3:
            n = N - n
        if self.ref.sigma(n, M, N) < 2.0:
            n, M = s, N // 2
        return self.hp(n=n, M=M, N=N)

    def _point_op(self, kind: str, params) -> Op:
        u = self.op_seq(self.op_counter)
        self.op_counter += 1
        n, M, N = params.n, params.M, params.N
        mean, s = n * M / N, self.ref.sigma(n, M, N)
        lo, hi = self.ref.support(n, M, N)
        if kind in ("pmf", "cdf", "sf"):
            k = min(hi, max(lo, round(mean + (8.0 * u[0] - 4.0) * s)))
            return Op(kind, params, k)
        if kind == "tail":
            return Op(kind, params, 0.25 + 3.75 * u[0])
        if kind == "delta_star":
            return Op(kind, params, 8.0 * u[0] - 4.0)
        delta = (0.05, 0.25, 0.5)[min(2, int(3 * u[1]))]
        return self._certify_op(params, 0.8 * delta * (2.0 * u[0] - 1.0), delta)

    @staticmethod
    def _a_kn(params, k: int) -> float:
        n, M, N = params.n, params.M, params.N
        npq = n * M * (N - M) / (N * N)
        return (k - n * M / N) / ((N - n) / N * npq)

    def _certify_op(self, params, a_target: float, delta: float, refuse: bool = False) -> Op:
        """Certify at the lattice point nearest standardized offset a_target.

        The expected outcome comes from the applicability window written out
        here (|a| <= delta, k in the support, 6 min(np, nq) >= 1), with k
        moved off the window edge so float rounding cannot decide it.  With
        ``refuse`` k moves outward until the point is outside the window.
        """
        n, M, N = params.n, params.M, params.N
        npq = n * M * (N - M) / (N * N)
        lo, hi = self.ref.support(n, M, N)
        k = round(n * M / N + a_target * (N - n) / N * npq)
        outward = 1 if a_target > 0 else -1

        def inside(k: int) -> bool:
            return lo <= k <= hi and abs(self._a_kn(params, k)) <= delta and 6 * min(npq * N / (N - M), npq * N / M) >= 1

        while abs(abs(self._a_kn(params, k)) - delta) <= 1e-6 * delta or (refuse and inside(k)):
            k += outward if refuse else -outward
        return Op("certify", params, (k, delta), expect_refusal=not inside(k))

    def _block(self, b: int) -> list[Op]:
        half = self.HOT // 2
        ops = [self._point_op(self.KINDS[(j + b) % 6], self.hot[half * (b % 2) + j]) for j in range(half)]
        fresh = []
        for j in range(self.FRESH):
            c = self.FRESH * b + j
            u = self.inst_seq(c)
            # stratify log10 N over [2, 9] within the block
            u[0] = (j + u[0]) / self.FRESH
            params = self._instance(u, (2.0, 9.0))
            fresh.append(params)
            ops.append(self._point_op(self.KINDS[(j + b) % 6], params))
        params = fresh[b % self.FRESH] if b % 2 else self.hot[b % self.HOT]
        u = self.op_seq(self.op_counter)
        self.op_counter += 1
        sign = 1.0 if u[2] < 0.5 else -1.0
        ops.append(self._certify_op(params, sign * 1.5 * 0.05, 0.05, refuse=True))
        random.Random(self.shuffle_seed + b).shuffle(ops)
        return ops

    def setup(self) -> None:
        import reference
        from hyperberry import exact, lab, stirling
        from hyperberry.params import HypParams

        self.ref, self.windows = reference, reference.Windows()
        self.exact, self.lab, self.stirling = exact, lab, stirling
        self.hp = HypParams
        self.hot = []
        for j in range(self.HOT):
            u = self.hot_seq(j)
            u[0] = (j + u[0]) / self.HOT
            self.hot.append(self._instance(u, (4.0, 9.0)))
        self.beyond_cap = [
            self._point_op(kind, params)
            for params in (
                HypParams(n=50_000_000, M=50_000_000, N=100_000_000),
                HypParams(n=500_000_000, M=500_000_000, N=1_000_000_000),
            )
            for kind in self.TABLE_KINDS
        ]
        self.blocks = [self._block(b) for b in range(self.PREGENERATED)]
        # warm-up: every operation once on each backend, then an empty cache
        for params in (HypParams(n=40, M=50, N=200), HypParams(n=4000, M=5000, N=20000)):
            for kind in self.KINDS:
                op = self._point_op(kind, params)
                with contextlib.suppress(stirling.ApplicabilityError):
                    self.execute(op)
        self.reset()

    def reset(self) -> None:
        self.exact._table.cache_clear()

    def probes(self) -> list[Op]:
        return self.beyond_cap

    def run_unit(self, i: int, run_op) -> None:
        while len(self.blocks) <= i:
            self.blocks.append(self._block(len(self.blocks)))
        for op in self.blocks[i]:
            run_op(op)

    def execute(self, op: Op):
        p = op.params
        if op.kind == "pmf":
            return self.exact.pmf_exact(p, op.arg)
        if op.kind == "cdf":
            return self.exact.cdf_exact(p, op.arg)
        if op.kind == "sf":
            return self.exact.sf_exact(p, op.arg)
        if op.kind == "tail":
            return self.lab.tail_two_sided(p, op.arg)
        if op.kind == "delta_star":
            return self.lab.delta_star_at(p, op.arg)
        k, delta = op.arg
        return self.stirling.certified_pmf(p, k, delta)

    # -- correctness --------------------------------------------------------

    def check(self, op: Op, value) -> tuple[str, str] | None:
        """None when the result matches its reference, else ``wrong(...)``
        or ``inaccurate(...)``.

        A logspace pmf must be within 1e-9 relative of 50-digit mpmath plus
        the rounding of its anchor, which the library sums from three
        log-binomials rounded to double (4 ulps of their magnitudes, the
        term ``reference.float_budget`` uses; about 1e-6 relative at
        N = 1e9).  The largest relative error seen is kept in
        ``findings["exact.pmf_rel_err_max"]``, so the distance to the
        README's ~1e-14 stays measured.  Logspace cdf, sf, tails and
        deviations must match the windowed reference within the float
        budget the library declares for its lattice profile
        (``reference.float_budget``), which also bounds |cdf + sf - 1|.
        Rational cdf, sf, tails and deviations must match the logspace
        backend within that same budget, which the logspace side carries.
        """
        p = op.params
        n, M, N = p.n, p.M, p.N
        rational = N <= self.exact.RATIONAL_N_MAX
        ref = self.ref
        if op.kind == "certify":
            import mpmath

            k, _ = op.arg
            with mpmath.workdps(50):
                if rational:
                    exact_value = ref.pmf_exact_fraction(n, M, N, k)
                    truth = mpmath.mpf(exact_value.numerator) / exact_value.denominator
                else:
                    truth = ref.pmf_mp(n, M, N, k)
                inside = mpmath.mpf(value.lo) <= truth <= mpmath.mpf(value.hi)
            if inside:
                return None
            return wrong(f"enclosure [{value.lo!r}, {value.hi!r}] misses {truth}")
        if rational:
            if op.kind == "pmf" and value.value != ref.pmf_exact_fraction(n, M, N, op.arg):
                return wrong("rational pmf differs from the exact binomial ratio")
            # the logspace side carries the float budget; a tail adds two
            lo, hi = ref.support(n, M, N)
            budget = ref.float_budget(n, M, N, ref.mode(n, M, N), hi - lo + 1)
            other = self.execute_backend(op, "logspace")
            return _agree(float(value), other, op.kind, (2.0 if op.kind == "tail" else 1.0) * budget)
        if op.kind == "pmf":
            truth = float(ref.log_pmf_mp(n, M, N, op.arg))
            if truth == -math.inf:
                return None if value.log_value == -math.inf else wrong("nonzero outside the support")
            err = abs(value.log_value - truth)
            self.findings["exact.pmf_rel_err_max"] = max(self.findings["exact.pmf_rel_err_max"], err)
            if err <= 1e-9 * max(1.0, abs(truth)) + ref.anchor_budget(n, M, N, ref.mode(n, M, N)):
                return None
            return inaccurate(f"log pmf {value.log_value!r} vs mpmath {truth!r}")
        w = self.windows(p)
        if op.kind == "cdf":
            truth = w.cdf(op.arg)
        elif op.kind == "sf":
            truth = w.sf(op.arg)
        elif op.kind == "tail":
            truth = w.tail_two_sided(op.arg)
        else:
            truth = w.cdf(math.floor(w.mean + op.arg * w.sigma)) - ref.phi_cdf_mp(op.arg)
        if abs(float(value) - truth) <= w.budget + 1e-9 * abs(truth) + 1e-15:
            return None
        return inaccurate(f"{op.kind} {float(value)!r} vs windowed reference {truth!r}")

    def execute_backend(self, op: Op, backend: str) -> float:
        p = op.params
        fn = {
            "pmf": self.exact.pmf_exact,
            "cdf": self.exact.cdf_exact,
            "sf": self.exact.sf_exact,
            "tail": self.lab.tail_two_sided,
            "delta_star": self.lab.delta_star_at,
        }[op.kind]
        return float(fn(p, op.arg, backend))

    @staticmethod
    def describe(op: Op, value) -> str:
        if op.kind == "certify":
            return f"{value.lo!r},{value.value!r},{value.hi!r},{value.rem_bound!r}"
        if isinstance(value, float):
            return repr(value)
        if value.value is not None:
            return f"rational:{value.value}"
        return f"logspace:{value.log_value!r}"


def _agree(value: float, other: float, kind: str, budget: float) -> tuple[str, str] | None:
    """A rational result against the logspace one, whose cumulative sums
    (cdf, sf, tails, deviations) may be off by the float ``budget``."""
    if kind == "pmf":
        ok = abs(value - other) <= 1e-9 * abs(other) or (abs(value) < 1e-300 and abs(other) < 1e-300)
    else:
        ok = abs(value - other) <= budget + 1e-9 * abs(other) + 1e-15
    return None if ok else inaccurate(f"{value!r} vs reference {other!r}")


# ---------------------------------------------------------------------------
# lab_grid
# ---------------------------------------------------------------------------

class LabGrid:
    """The calibrate-then-validate pipeline on fresh seeded instances.

    Why: whole-lattice scans with no reuse.  The work is in
    ``lab.lattice_profile``, the logspace table, the Phi evaluation, the
    argmax and the calibration search -- the ``exact`` layer is used very
    differently from ``point_queries``, so a windowed-kernel or cache change
    that helps one and hurts the other shows here.

    A pass expands a gate grid (N 1e4, 1e5 and 1e6 plus 0-2 %, p and f
    from the acceptance suite's 0.2/0.35/0.5), splits it even/odd after a
    (p, f, N) sort as the acceptance suite does, calibrates on the training
    half and validates every held-out instance: ``delta_exact``,
    ``max_nonuniform_violation <= 0`` and ``tail_two_sided <= tail_bound``
    over ``TAIL_X_GRID``.  A Delta ladder then runs ``delta_exact`` on four
    rational instances (N up to 5000) and six logspace instances with
    supports from 1e4 to 5e6.  The ladder stops at 5e6 points, which keeps
    peak RSS (the 64 cached tables plus one lattice scan) under 2 GB.

    Probe, run once after the timed region: ``delta_exact`` on an instance
    whose support (~2.1e7) is beyond the table cap -- refused with the cap
    error today (``exact.cap_refusals``), checked once answered.
    """

    name = "lab_grid"
    unit_name = "pass"
    #: the top 3 % are the calibrations and the largest ladder rungs
    tail_percentile = 97.0
    #: op_p50_ms is read in the quietest of this many stretches of the run
    #: (3 to 4 passes each at 30 s): single passes run up to six times
    #: slower than their neighbours on a busy shared host
    stretches = 4
    digest_units = 1
    trace_units = 3
    PREGENERATED = 64
    JITTER = 0.02

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"lab_grid/{seed}")
        self.grid_seq = Kronecker(rng, 0, 3)
        self.rat_seq = Kronecker(rng, 3, 2)
        self.log_seq = Kronecker(rng, 5, 2)
        self.cap_seq = Kronecker(rng, 7, 2)
        self.passes: list[dict] = []
        #: held-out instances where a calibrated bound does not hold
        self.findings = {"lab.validation_violations": 0}

    def _pass(self, i: int) -> dict:
        u = self.grid_seq(i)
        # sizes jitter by 2 % only: every pass gets fresh instances (no table
        # reuse) at nearly the same cost, so a run's passes are alike
        n_values = tuple(round(10**e * (1.0 + self.JITTER * ui)) for e, ui in zip((4, 5, 6), u))
        ladder = []
        for j in range(4):
            v = self.rat_seq(4 * i + j)
            N = round(10 ** (2.5 + j / 3 * (math.log10(5000) - 2.5)) * (1.0 - self.JITTER * v[0]))
            f = 0.4 + 0.1 * self.JITTER * v[1]
            ladder.append(self.hp(n=max(1, round(f * N)), M=N // 2, N=N))
        for j in range(6):
            v = self.log_seq(6 * i + j)
            support = round(10 ** (4 + j / 5 * (math.log10(5e6) - 4)) * (1.0 - self.JITTER * v[0]))
            ladder.append(self._with_support(support, v[1]))
        return {"N_values": n_values, "ladder": ladder}

    def _with_support(self, support: int, u: float):
        """Instance with min(n, M) = support, p = 1/2 and N up to 1e9."""
        f = 0.5 * 10 ** (-u * math.log10(max(1.0, 1e9 * 0.5 / support)) * 0.999)
        N = min(10**9, max(2 * support + 2, round(support / f)))
        return self.hp(n=support, M=N // 2, N=N)

    def setup(self) -> None:
        import reference
        from hyperberry import bounds, exact, lab
        from hyperberry.grids import SweepGrid, rule_list
        from hyperberry.params import HypParams

        self.windows = reference.Windows()
        self.exact, self.lab, self.bounds = exact, lab, bounds
        self.SweepGrid, self.rule_list, self.hp = SweepGrid, rule_list, HypParams
        self.passes = [self._pass(i) for i in range(self.PREGENERATED)]
        # warm-up: the lazy scipy.special import and each code path once
        warm = HypParams(n=5000, M=5000, N=10000)
        consts = lab.calibrate_constants([warm, HypParams(n=20000, M=20000, N=40000)])
        lab.max_nonuniform_violation(warm, consts)
        lab.delta_exact(HypParams(n=100, M=100, N=200))
        lab.tail_two_sided(warm, 1.0)
        self.reset()

    def reset(self) -> None:
        self.exact._table.cache_clear()

    def probes(self) -> list[Op]:
        v = self.cap_seq(0)
        return [Op("ladder_delta", self._with_support(round(2.05e7 * (1 + 0.05 * v[0])), v[1]))]

    def grid(self, spec: dict):
        P = (0.2, 0.35, 0.5)
        return self.SweepGrid(
            N_values=spec["N_values"],
            p_rule=self.rule_list(*P),
            f_rule=self.rule_list(*P),
            require_gate=True,
        )

    def run_unit(self, i: int, run_op) -> None:
        while len(self.passes) <= i:
            self.passes.append(self._pass(len(self.passes)))
        spec = self.passes[i]
        status, cal = run_op(Op("calibrate", None, spec))
        if status == "ok":
            for params in cal.validation:
                run_op(Op("delta", params))
                run_op(Op("violation", params, cal.consts))
                run_op(Op("tail", params, cal.consts))
        for params in spec["ladder"]:
            run_op(Op("ladder_delta", params))

    def execute(self, op: Op):
        lab = self.lab
        if op.kind == "calibrate":
            grid = self.grid(op.arg)
            ordered = sorted(grid.instances(), key=lambda q: (q.p, q.f, q.N))
            train, validation = ordered[0::2], ordered[1::2]
            consts = lab.calibrate_constants(train, grid_description=grid.describe())
            return Calibrated(consts, train, validation)
        if op.kind in ("delta", "ladder_delta"):
            return lab.delta_exact(op.params)
        if op.kind == "violation":
            return lab.max_nonuniform_violation(op.params, op.arg)
        return [
            (lab.tail_two_sided(op.params, x), self.bounds.tail_bound(op.params, x, op.arg))
            for x in lab.TAIL_X_GRID
        ]

    def check(self, op: Op, value) -> tuple[str, str] | None:
        """Distances and tails must match the windowed reference within the
        float budget the library declares for its lattice profile (see
        ``reference.float_budget``), plus 1e-12 for the reference."""
        if op.kind == "calibrate":
            c = value.consts
            train = value.train
            ratios = [self.windows(q).kolmogorov() * q.sigma for q in train]
            tol = max((self.windows(q).budget + 1e-12) * q.sigma for q in train)
            if abs(c.C1 - max(ratios)) > tol or abs(c.C2 - min(ratios)) > tol:
                return inaccurate(f"C1/C2 {c.C1!r}/{c.C2!r} vs reference {max(ratios)!r}/{min(ratios)!r}")
            lattices = (self.lab.C3_LATTICE, self.lab.C4_LATTICE, self.lab.C5_LATTICE, self.lab.C6_LATTICE)
            if any(v not in lat for v, lat in zip((c.C3, c.C4, c.C5, c.C6), lattices)):
                return wrong("C3..C6 off their search lattices")
            return None
        if op.kind in ("delta", "ladder_delta"):
            w = self.windows(op.params)
            truth = w.kolmogorov()
            if abs(value.delta_sup - truth) > w.budget + 1e-12:
                return inaccurate(f"delta {value.delta_sup!r} vs reference {truth!r}")
            if op.params.N <= self.exact.RATIONAL_N_MAX:
                other = self.lab.delta_exact(op.params, backend="logspace").delta_sup
                if abs(value.delta_sup - other) > 1e-10:
                    return inaccurate(f"rational delta {value.delta_sup!r} vs logspace {other!r}")
            return None
        if op.kind == "tail":
            w = self.windows(op.params)
            tol = 2.0 * w.budget + 1e-13
            for x, (tail, _) in zip(self.lab.TAIL_X_GRID, value):
                truth = w.tail_two_sided(x)
                if abs(tail - truth) > tol:
                    return inaccurate(f"tail at x={x} {tail!r} vs reference {truth!r}")
        return None

    def validation(self, op: Op, value) -> str | None:
        """Whether the calibrated bounds hold on a held-out instance.

        A violation is a finding about the constants, not a failed
        operation: the operation computed it correctly.  It is counted in
        ``findings["lab.validation_violations"]``; at some seeds the
        non-uniform bound misses by ~1e-11.
        """
        why = None
        if op.kind == "violation" and value > 0:
            why = f"non-uniform bound violated by {value!r}"
        if op.kind == "tail":
            bad = [i for i, (tail, bound) in enumerate(value) if tail > bound]
            if bad:
                why = f"tail bound violated at {len(bad)} of {len(value)} x values"
        if why:
            self.findings["lab.validation_violations"] += 1
        return why

    @staticmethod
    def describe(op: Op, value) -> str:
        if op.kind == "calibrate":
            return value.consts.to_json()
        if op.kind in ("delta", "ladder_delta"):
            return f"{value.delta_sup!r},{value.argmax_k},{value.side},{value.backend}"
        if op.kind == "violation":
            return repr(value)
        return ";".join(f"{t!r},{b!r}" for t, b in value)


@dataclass
class Calibrated:
    consts: object
    train: list
    validation: list


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

GATE_GRID = "N = {N1}, {N2}\np = list 0.3, 0.5\nf = const 0.5\nrequire_gate = true\n"
SWEEP_GRID = "N = {N1}, {N2}, {N3}\np = list 0.2, 0.5\nf = list 0.3, 0.5\n"
#: fixed input constants for ``bound``; the sweep uses the cycle's calibration
BOUND_CONSTANTS = (
    '{"C1": 0.4, "C2": 0.1, "C3": 0.64, "C4": 0.004375, "C5": 0.08, "C6": 0.07,'
    ' "provenance": {}, "calibration_grid": "fixed benchmark input", "timestamp": null}\n'
)


class CliSession:
    """A fixed seeded script of ``python -m hyperberry.cli`` subprocesses.

    Why: the only workload that pays interpreter start and imports on every
    operation (``cli.import_ms``), the sweep process pool and ``lattice``
    (through ``verify``).  The ``exact`` layer does little here, so a
    lazy-import change must move this workload and leave the other two
    flat.

    A cycle is 10 invocations: pmf and cdf (rational), pmf (logspace),
    certify in the window and one planted outside it (expected exit 2),
    bound with constants, delta (rational), then the long ones -- calibrate
    on a gate grid, sweep with the cycle's constants under
    HYPERBERRY_THREADS=2, and verify.  Imports are not warmed up: users pay
    them on every run.

    The unit is one command, taken in cycle order: every invocation costs
    about a second, interpreter start and imports included, so a 30-second
    run has 30 to 45 units, and the highest percentile with ten samples
    beyond it is about the 70th.
    """

    name = "cli_session"
    unit_name = "command"
    tail_percentile = 70.0
    stretches = 1
    CYCLE = 10
    digest_units = CYCLE
    trace_units = 2 * CYCLE
    PREGENERATED = 32

    def __init__(self, seed: int, root: str, workdir: str):
        """``workdir`` is relative to ``root``, where every command runs."""
        self.seed = seed
        self.root = root
        self.workdir = workdir
        rng = random.Random(f"cli_session/{seed}")
        self.seq = Kronecker(rng, 0, 8)
        self.cycles: list[list[Op]] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["HYPERBERRY_THREADS"] = "1"

    def _cycle(self, c: int) -> list[Op]:
        u = self.seq(c)
        w = self.workdir

        def point(cmd, n, M, N, *rest, expect=0):
            argv = [cmd, "--n", str(n), "--M", str(M), "--N", str(N), *map(str, rest)]
            return Op(cmd, None, argv, expect_refusal=expect == 2)

        N_rat = round(10 ** (2.3 + 1.0 * u[0]))
        N_cdf = round(10 ** (2.3 + 0.7 * u[1]))
        N_log = round(10 ** (5 + u[2]))
        N_del = round(10 ** (2.5 + 0.5 * u[3]))
        N_big = round(10 ** (4.7 + 0.6 * u[4]))
        N_gate = round(10 ** (4.0 + 0.2 * u[5]))
        k_rat = N_rat // 4 + round(4 * u[6])
        gate = os.path.join(w, f"gate-{c}.cfg")
        sweep = os.path.join(w, f"sweep-{c}.cfg")
        consts = os.path.join(w, f"consts-{c}.json")
        with open(gate, "w", encoding="utf-8") as fh:
            fh.write(GATE_GRID.format(N1=N_gate, N2=2 * N_gate))
        with open(sweep, "w", encoding="utf-8") as fh:
            fh.write(SWEEP_GRID.format(N1=N_gate // 2, N2=N_gate, N3=4 * N_gate))
        bound_consts = os.path.join(w, "bound-constants.json")
        return [
            point("pmf", N_rat // 2, N_rat // 2, N_rat, "--k", k_rat),
            point("cdf", N_cdf // 3, N_cdf // 2, N_cdf, "--k", N_cdf // 6),
            point("pmf", N_log // 5, N_log // 2, N_log, "--k", N_log // 10 + round(10 * u[7])),
            # mean N/4; |k - mean| = N/100 is |a| = 0.16: inside delta = 0.5, outside 0.05
            point("certify", N_big // 2, N_big // 2, N_big, "--k", N_big // 4 - N_big // 100, "--json"),
            point("certify", N_big // 2, N_big // 2, N_big, "--k", N_big // 4 + N_big // 100, "--delta", "0.05", expect=2),
            point("bound", N_big // 3, N_big // 2, N_big, "--constants", bound_consts, "--x", "1.5", "--x", "3"),
            point("delta", N_del // 2, N_del // 3, N_del, "--json"),
            Op("calibrate", None, ["calibrate", "--grid", gate, "--no-timestamp", "--out", consts]),
            Op("sweep", None, ["sweep", "--grid", sweep, "--constants", consts, "--no-timestamp"],
               extra={"threads": "2"}),
            Op("verify", None, ["verify"]),
        ]

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        with open(os.path.join(self.workdir, "bound-constants.json"), "w", encoding="utf-8") as fh:
            fh.write(BOUND_CONSTANTS)
        self.cycles = [self._cycle(c) for c in range(self.PREGENERATED)]
        # bytecode cache only: an installed package ships compiled modules
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", os.path.join(self.root, "src", "hyperberry")],
            check=True, env=self.env, timeout=120,
        )

    def reset(self) -> None:
        """Empty the table cache the in-process replays fill."""
        exact = sys.modules.get("hyperberry.exact")
        if exact is not None:
            exact._table.cache_clear()

    def run_unit(self, i: int, run_op) -> None:
        c = i // self.CYCLE
        while len(self.cycles) <= c:
            self.cycles.append(self._cycle(len(self.cycles)))
        run_op(self.cycles[c][i % self.CYCLE])

    def execute(self, op: Op):
        """Run one CLI invocation in a fresh interpreter."""
        env = self.env
        if "threads" in op.extra:
            env = dict(env, HYPERBERRY_THREADS=op.extra["threads"])
        proc = subprocess.run(
            [sys.executable, "-m", "hyperberry.cli", *op.arg],
            env=env, cwd=self.root, capture_output=True, text=True, timeout=120,
        )
        return CliResult(proc.returncode, proc.stdout, self._artifact(op))

    def _artifact(self, op: Op) -> str:
        if "--out" in op.arg:
            with open(op.arg[op.arg.index("--out") + 1], "r", encoding="utf-8") as fh:
                return fh.read()
        return ""

    def in_process(self, op: Op) -> "CliResult":
        """The same command through ``cli.main`` in this process."""
        from hyperberry import cli

        argv = list(op.arg)
        if "--out" in argv:
            argv[argv.index("--out") + 1] += ".inprocess"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        artifact = ""
        if "--out" in argv:
            with open(argv[argv.index("--out") + 1], "r", encoding="utf-8") as fh:
                artifact = fh.read()
        return CliResult(code, out.getvalue(), artifact)

    def check(self, op: Op, value: "CliResult") -> tuple[str, str] | None:
        """The subprocess must print what ``cli.main`` prints in-process,
        run serially (HYPERBERRY_THREADS=1), byte for byte."""
        expected = self.in_process(op)
        if value.code != expected.code:
            return wrong(f"exit {value.code}, in-process {expected.code}")
        if (value.stdout, value.artifact) != (expected.stdout, expected.artifact):
            return wrong("output differs from the in-process result")
        return None

    def outcome(self, op: Op, value: "CliResult") -> str:
        if value.code == 2 and op.expect_refusal:
            return "refused"
        return "ok" if value.code == 0 and not op.expect_refusal else "error"

    @staticmethod
    def describe(op: Op, value) -> str:
        return f"exit={value.code}\n{value.stdout}{value.artifact}"


@dataclass
class CliResult:
    code: int
    stdout: str
    artifact: str
