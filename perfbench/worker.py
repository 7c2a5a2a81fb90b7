"""One workload in one fresh process: set up, measure, check, optionally trace.

Started by ``run.py``; prints one JSON object as its last line.  With
``--mode setup`` it only sets up and reports how long that took.
"""
from __future__ import annotations

import time

# set-up time starts before the imports below, which are part of it
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import weakref  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import workloads  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402

#: interpreter and import probes: fresh processes per sample
CLI_PROBES = 5
SWEEP_PROBES = 3


@dataclass
class Record:
    unit: int
    op: workloads.Op
    seconds: float
    status: str        # "ok" | "refused" | "capped" | "error"
    value: object
    #: "" when the operation succeeded and checked out; "wrong: ..." when an
    #: exact or certified output is not what it must be (the run is then
    #: not correct); "failed: ..." for any other failure
    verdict: str = ""
    #: False for the probes run once after the timed region
    timed: bool = True


class Runner:
    """Times operations in a closed loop and keeps their results.

    Besides each operation's latency it keeps each unit's wall and CPU
    time (``cpu_clock``: this process, or its children for the CLI).
    """

    def __init__(self, workload, cpu_clock=time.process_time):
        self.workload = workload
        self.cpu_clock = cpu_clock
        self.records: list[Record] = []
        self.unit_cpu: list[float] = []
        self.unit = 0

    def run_op(self, op: workloads.Op):
        start = time.perf_counter()
        try:
            value = self.workload.execute(op)
            status = "ok"
        except Exception as err:  # an operation's failure is a measured outcome
            if type(err).__name__ == "ApplicabilityError":
                status, value = "refused", sorted(err.failed)
            elif isinstance(err, ValueError) and "table cap" in str(err):
                status, value = "capped", str(err)
            else:
                status, value = "error", f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - start
        if status == "ok" and hasattr(self.workload, "outcome"):
            status = self.workload.outcome(op, value)
        self.records.append(Record(self.unit, op, seconds, status, value))
        return status, value

    def run_units(self, seconds: float | None, units: int | None = None) -> list[float]:
        """Whole units until ``seconds`` have passed (or exactly ``units``)."""
        walls = []
        start = time.perf_counter()
        while True:
            c0 = self.cpu_clock()
            t0 = time.perf_counter()
            self.workload.run_unit(self.unit, self.run_op)
            walls.append(time.perf_counter() - t0)
            self.unit_cpu.append(self.cpu_clock() - c0)
            self.unit += 1
            if units is not None:
                if self.unit >= units:
                    break
            elif time.perf_counter() - start >= seconds:
                break
        return walls

    def run_probes(self) -> None:
        """The workload's untimed probes, once, after the timed units."""
        for op in getattr(self.workload, "probes", list)():
            self.run_op(op)
            self.records[-1].timed = False


def cpu_seconds(children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb(children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0


def verdict(workload, rec: Record) -> str:
    op = rec.op
    if rec.status == "error":
        return f"failed: {rec.value}"
    if rec.status == "refused":
        return "" if op.expect_refusal else f"failed: refused inside the window ({rec.value})"
    if rec.status == "capped":
        # the documented limit of the logspace table, not a failure
        return "" if workloads.beyond_table_cap(op.params) else f"failed: {rec.value} below the cap"
    if op.expect_refusal:
        return "wrong: answered where a refusal was expected"
    mismatch = workload.check(op, rec.value)
    if mismatch:
        severity, message = mismatch
        return f"wrong: {message}" if severity == "wrong" else f"failed: inaccurate: {message}"
    validation = getattr(workload, "validation", None)
    if validation is not None:
        validation(op, rec.value)
    return ""


def digest(workload, records: list[Record]) -> str:
    """sha256 over the results of the first ``digest_units`` units."""
    h = hashlib.sha256()
    for rec in records:
        if rec.unit >= workload.digest_units:
            break
        if rec.status == "ok":
            text = workload.describe(rec.op, rec.value)
        else:
            text = f"{rec.status}:{rec.value}"
        h.update(f"{rec.unit}|{rec.op.kind}|{rec.op.label}|{rec.op.arg}|{text}\n".encode())
    return h.hexdigest()


def failure_summary(failed: list[Record]) -> dict[str, dict]:
    """Failures grouped by operation kind and cause, with one example each."""
    out: dict[str, dict] = {}
    for rec in failed:
        cause = re.split(r"[0-9(\[]", ":".join(rec.verdict.split(":")[:2]))[0].rstrip(" :")
        entry = out.setdefault(f"{rec.op.kind} {cause}", {"count": 0, "example": rec.verdict[:160]})
        entry["count"] += 1
    return out


def findings(workload, records) -> dict:
    """What the checks measured beyond pass/fail, over the whole run."""
    out = dict(getattr(workload, "findings", {}))
    out["exact.cap_refusals"] = sum(1 for r in records if r.status == "capped")
    return out


def quietest_median(ok: list[Record], units: int, stretches: int) -> tuple[float, int]:
    """Lowest median latency (ms) over ``stretches`` equal runs of whole
    units, and the number of stretches.

    A neighbour on a shared host only ever slows operations down, in bursts
    that can make a few seconds several times slower; the quietest stretch
    is the best estimate of the program's own latency.
    """
    windows = max(1, min(stretches, units))
    per: list[list[float]] = [[] for _ in range(windows)]
    for r in ok:
        per[r.unit * windows // units].append(r.seconds * 1e3)
    return min((workloads.percentile(sorted(v), 50.0) for v in per if v), default=math.nan), windows


def end_to_end(workload, records, walls, unit_cpu, rss, setup_s) -> tuple[dict, dict]:
    """Throughput and CPU per operation are medians over the run's units and
    the median latency is that of the run's quietest stretch, so a few slow
    seconds on a shared host or a few costly instances do not move them."""
    timed = [r for r in records if r.timed]
    ok = [r for r in timed if not r.verdict]
    done, done_ok = [0] * len(walls), [0] * len(walls)
    for r in timed:
        done[r.unit] += 1
        done_ok[r.unit] += not r.verdict
    lat = sorted(r.seconds * 1e3 for r in ok)
    pct = workload.tail_percentile
    tail = workloads.percentile(lat, pct) if lat else math.nan
    beyond = sum(1 for v in lat if v > tail)
    p50, windows = quietest_median(ok, len(walls), workload.stretches)
    metrics = {
        "ops_per_s": (statistics.median(k / w for k, w in zip(done_ok, walls)), "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "cpu_ms_per_op": (statistics.median(c * 1e3 / k for c, k in zip(unit_cpu, done)), "ms"),
        "ok_share": (len(ok) / len(timed), "share"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = {
        "ops_per_s": f"median over {len(walls)} {workload.unit_name}(s); "
                     f"{len(ok)} operations in {sum(walls):.2f} s overall",
        "op_p50_ms": f"lowest of {windows} stretch medians; whole run "
                     f"{workloads.percentile(lat, 50.0) if lat else math.nan:.6g} ms"
                     if windows > 1 else "whole run",
        "op_tail_ms": f"p{pct:g}, {beyond} samples beyond it, n={len(lat)}",
        "cpu_ms_per_op": f"median over {len(walls)} {workload.unit_name}(s)",
        "ok_share": f"fail_share = {1 - len(ok) / len(timed):.6f} ({len(timed) - len(ok)} of {len(timed)})",
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# traced replay
# ---------------------------------------------------------------------------

POINT_QUERY_SELF = (
    "exact.pmf_exact", "exact.cdf_exact", "exact.sf_exact", "exact.choose_backend",
    "exact._rational", "exact._logspace", "exact._table", "exact.log_pmf_table",
    "exact.LogPmfTable.log_at", "exact.LogPmfTable.cdf_at", "exact.LogPmfTable.sf_at",
)

GROUPS = {
    "exact.rational": ("exact.pmf_fraction", "exact.cdf_fraction"),
    "bounds.eval": (
        "bounds.uniform_bound", "bounds.nonuniform_bound", "bounds.tail_bound",
        "bounds.bound_profile", "bounds.lambda_weight", "bounds.proof_traced_constants",
    ),
    "lab.phi": ("lab._phi_vec", "gaussian.Phi"),
    "lab.calibrate": ("lab.calibrate_constants",),
    "lab.calibrate_search": (
        "lab._nonuniform_required_prefactor", "lab._tail_required_prefactor", "lab._pick_lattice_value",
    ),
}


class TableBytes:
    """Live bytes of logspace tables, computed from their array sizes."""

    def __init__(self):
        self.live = 0
        self.peak = 0

    def built(self, tracer, args, kwargs, result) -> None:
        table = args[0]
        size = sum(a.nbytes for a in (table.ks, table.logpmf, table.pmf, table.cdf, table.sf_incl))
        tracer.counters["exact.table_points"] += len(table.ks)
        self.live += size
        self.peak = max(self.peak, self.live)
        weakref.finalize(table, self._freed, size)

    def _freed(self, size: int) -> None:
        self.live -= size


def make_tracer(package) -> tuple[Tracer, TableBytes]:
    tracer = Tracer(GROUPS, per_span=Tracer.calibrate())
    tracer.install(package)
    tracer.add_group("lattice", sorted(n for n in tracer.labels if n.startswith("lattice.")))
    table_bytes = TableBytes()

    def profile_built(tr, args, kwargs, result):
        tr.counters[f"lab.lattice_points.{result.backend}"] += len(result.ks)
        if tr.active("lab.calibrate"):
            tr.counters["lab.lattice_builds_in_calibration"] += 1

    def scans(tr, args, kwargs, result):
        tr.counters["lab.search_scans"] += len(args[0])

    def calibrated(tr, args, kwargs, result):
        tr.counters["lab.calibration_train_instances"] += len(args[0])

    tracer.hooks.update({
        "exact.LogPmfTable.__init__": table_bytes.built,
        "lab.lattice_profile": profile_built,
        "lab._nonuniform_required_prefactor": scans,
        "lab._tail_required_prefactor": scans,
        "lab.calibrate_constants": calibrated,
    })
    return tracer, table_bytes


def median_wall(argv: list[str], env: dict, reps: int) -> float:
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=120, capture_output=True)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def cli_probes(root: str) -> dict[str, float]:
    """Bare interpreter start and the fresh import of ``hyperberry.cli``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    interp = median_wall([sys.executable, "-c", "pass"], env, CLI_PROBES)
    imported = median_wall([sys.executable, "-c", "import hyperberry.cli"], env, CLI_PROBES)
    return {"interpreter": interp, "import": imported - interp}


#: per-layer metrics taken from the checks of the whole run, not the replay
FINDINGS = {
    "exact.cap_refusals": "count",
    "exact.pmf_rel_err_max": "rel",
    "lab.validation_violations": "count",
}


def layer_metrics(tr: Tracer, table_bytes: TableBytes, cache_delta, untraced_wall, traced_wall,
                  probes: dict, fail_share: float, findings: dict) -> tuple[dict, dict]:
    inc, calls, errs, selft = tr.inclusive, tr.calls, tr.errors, tr.self_time
    gtime, gcalls, c = tr.group_time, tr.group_calls, tr.counters
    ms = 1e3
    hits, misses = cache_delta
    calibrations = calls["lab.calibrate_constants"]
    builds_in_cal = c["lab.lattice_builds_in_calibration"]
    module_ms = tr.module_self_ms()
    m = {
        "cli.interpreter_ms": (probes["interpreter"] * ms, "ms"),
        "cli.import_ms": (probes["import"] * ms, "ms"),
        "cli.command_ms": (inc["cli.main"] * ms / calls["cli.main"] if calls["cli.main"] else 0.0, "ms"),
        "cli.sweep_parallel_ms": (probes.get("sweep_parallel", 0.0) * ms, "ms"),
        "cli.sweep_serial_ms": (probes.get("sweep_serial", 0.0) * ms, "ms"),
        "exact.rational_ms": (gtime["exact.rational"] * ms, "ms"),
        "exact.rational_calls": (gcalls["exact.rational"], "count"),
        "exact.anchor_ms": (inc["exact._log_binom_hp"] * ms, "ms"),
        "exact.anchor_calls": (calls["exact._log_binom_hp"], "count"),
        "exact.table_build_ms": (inc["exact.LogPmfTable.__init__"] * ms, "ms"),
        "exact.table_builds": (calls["exact.LogPmfTable.__init__"] - errs["exact.LogPmfTable.__init__"], "count"),
        "exact.table_points": (c["exact.table_points"], "count"),
        "exact.table_cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "share"),
        "exact.table_bytes_peak": (table_bytes.peak, "bytes"),
        "exact.point_query_ms": (sum(selft[n] for n in POINT_QUERY_SELF) * ms, "ms"),
        "stirling.certify_ms": (inc["stirling.certified_pmf"] * ms, "ms"),
        "stirling.certify_calls": (calls["stirling.certified_pmf"], "count"),
        "stirling.refusals": (errs["stirling.certified_pmf"], "count"),
        "bounds.eval_ms": (gtime["bounds.eval"] * ms, "ms"),
        "bounds.eval_calls": (gcalls["bounds.eval"], "count"),
        "lab.lattice_profile_ms": (inc["lab.lattice_profile"] * ms, "ms"),
        "lab.lattice_points": (c["lab.lattice_points.rational"] + c["lab.lattice_points.logspace"], "count"),
        "lab.lattice_points.rational": (c["lab.lattice_points.rational"], "count"),
        "lab.lattice_points.logspace": (c["lab.lattice_points.logspace"], "count"),
        "lab.phi_ms": (gtime["lab.phi"] * ms, "ms"),
        "lab.delta_self_ms": (selft["lab.delta_exact"] * ms, "ms"),
        "lab.calibrate_ms": (inc["lab.calibrate_constants"] * ms, "ms"),
        "lab.calibrate_search_ms": (gtime["lab.calibrate_search"] * ms, "ms"),
        "lab.search_scans": (c["lab.search_scans"], "count"),
        "lab.lattice_builds_per_calibration": (builds_in_cal / calibrations if calibrations else 0.0, "count"),
        "lab.lattice_build_useful_ratio": (
            c["lab.calibration_train_instances"] / builds_in_cal if builds_in_cal else 0.0, "share"),
        "lab.tail_ms": (inc["lab.tail_two_sided"] * ms, "ms"),
        "lab.violation_ms": (inc["lab.max_nonuniform_violation"] * ms, "ms"),
        "lattice.monotone_sum_ms": (inc["lattice.monotone_sum_bound"] * ms, "ms"),
        "lattice.calls": (gcalls["lattice"], "count"),
    }
    for mod in MODULES:
        m[f"{mod}.self_ms"] = (module_ms[mod], "ms")
    m["bench.self_ms"] = ((traced_wall - tr.root_time) * ms, "ms")
    m["trace.per_span_us"] = (tr.per_span * 1e6, "us")
    m["trace.overhead_share"] = (traced_wall / untraced_wall - 1.0, "share")
    m["trace.attributed_share"] = (sum(module_ms.values()) / (untraced_wall * ms), "share")
    m["trace.spans"] = (tr.span_count, "count")
    m["fail_share"] = (fail_share, "share")
    for name, unit in FINDINGS.items():
        m[name] = (findings.get(name, 0), unit)
    notes = {}
    for name, (value, _) in m.items():
        if value == 0 and name != "fail_share" and name not in FINDINGS:
            notes[name] = "absent: this workload never reaches that code"
    notes["trace.attributed_share"] = (
        f"module self time, less {tr.per_span * 1e6:.2f} us per span of tracer cost, is "
        f"{m['trace.attributed_share'][0]:.3f} x the untraced wall; the traced wall is "
        f"{traced_wall / untraced_wall:.3f} x"
    )
    return m, notes


def traced_replay(workload, runner_factory, package, units: int):
    """Replay the first ``units`` units untraced, then traced, from the same state."""
    workload.reset()
    untraced = sum(runner_factory().run_units(None, units))
    workload.reset()
    cache = package.exact._table
    before = cache.cache_info()
    tracer, table_bytes = make_tracer(package)
    try:
        traced = sum(runner_factory().run_units(None, units))
    finally:
        tracer.uninstall()
    after = cache.cache_info()
    cache_delta = (after.hits - before.hits, after.misses - before.misses)
    return tracer, table_bytes, cache_delta, untraced, traced


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--root", required=True)
    ap.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = ap.parse_args()
    root = args.root
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    is_cli = args.workload == "cli_session"
    # relative to the checkout root (the worker's cwd), so CLI arguments and
    # the digest are the same in every checkout
    workdir = os.path.join(".perfbench_out", f"cli-work-seed{args.seed}")

    if is_cli:
        workload = workloads.CliSession(args.seed, root, workdir)
    elif args.workload == "point_queries":
        workload = workloads.PointQueries(args.seed)
    else:
        workload = workloads.LabGrid(args.seed)
    try:
        workload.setup()
        setup_s = time.perf_counter() - _STARTED
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        runner = Runner(workload, lambda: cpu_seconds(is_cli))
        walls = runner.run_units(args.seconds)
        rss = peak_rss_mb(is_cli)
        runner.run_probes()

        import hyperberry
        import hyperberry.cli  # noqa: F401  (the tracer wraps every module)

        if not os.path.abspath(hyperberry.__file__).startswith(os.path.abspath(src) + os.sep):
            print(f"hyperberry imported from {hyperberry.__file__}, not {src}", file=sys.stderr)
            return 1
        if is_cli:
            os.environ["HYPERBERRY_THREADS"] = "1"
        for rec in runner.records:
            rec.verdict = verdict(workload, rec)
        failed = [r for r in runner.records if r.verdict]
        result = {
            "attempted": len(runner.records),
            "failed": len(failed),
            "correct": not any(r.verdict.startswith("wrong") for r in runner.records),
            "units": len(walls),
            "unit_name": workload.unit_name,
            "digest": digest(workload, runner.records),
            "digest_units": workload.digest_units,
            "failures": failure_summary(failed),
            "findings": findings(workload, runner.records),
        }
        if not args.trace:
            metrics, notes = end_to_end(workload, runner.records, walls, runner.unit_cpu, rss, setup_s)
        else:
            probes = cli_probes(root)
            units = min(len(walls), workload.trace_units)
            if is_cli:
                probes.update(_sweep_probes(workload))

                def factory():
                    r = Runner(workload)
                    r.run_op = _in_process_runner(workload, r)
                    return r
            else:
                def factory():
                    return Runner(workload)
            tracer, table_bytes, cache_delta, untraced, traced = traced_replay(
                workload, factory, hyperberry, units)
            metrics, notes = layer_metrics(
                tracer, table_bytes, cache_delta, untraced, traced, probes,
                len(failed) / len(runner.records), result["findings"])
            result["trace_units"] = units
            if args.spans:
                tracer.write(args.spans)
                result["spans_file"] = args.spans
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["notes"] = notes
        print(json.dumps(result))
        return 0
    finally:
        if is_cli:
            import shutil

            shutil.rmtree(workdir, ignore_errors=True)


def _in_process_runner(workload, runner: Runner):
    """run_op that sends each CLI operation through cli.main in this process."""
    def run_op(op):
        start = time.perf_counter()
        value = workload.in_process(op)
        runner.records.append(Record(runner.unit, op, time.perf_counter() - start, "ok", value))
        return "ok", value
    return run_op


def _sweep_probes(workload) -> dict[str, float]:
    """In-process sweep with a 2-process pool and serially, alternating."""
    op = next(o for o in workload.cycles[0] if o.kind == "sweep")
    samples = {"2": [], "1": []}
    for _ in range(SWEEP_PROBES):
        for threads in ("2", "1"):
            os.environ["HYPERBERRY_THREADS"] = threads
            t0 = time.perf_counter()
            workload.in_process(op)
            samples[threads].append(time.perf_counter() - t0)
    os.environ["HYPERBERRY_THREADS"] = "1"
    return {"sweep_parallel": statistics.median(samples["2"]), "sweep_serial": statistics.median(samples["1"])}


if __name__ == "__main__":
    sys.exit(main())
