"""Re-measure the single-run figures quoted in ROADMAP item 1.

Run from the root of a checkout:

    python3 perfbench/roadmap_numbers.py

Each library call is timed untraced (median of REPS, cold cache for table
builds) and then once more with every hyperberry module wrapped, which
gives its per-layer breakdown.  The import split comes from
``python -X importtime``.  Prints a markdown table.
"""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import machine
from tracer import Tracer

REPS = 5
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
ENV = dict(os.environ, PYTHONPATH=SRC)


def wall(argv: list[str]) -> float:
    samples = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=ENV, cwd=ROOT, check=True, capture_output=True, timeout=120)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def import_split() -> dict[str, float]:
    """Cumulative import time (ms) of the heavy modules under hyperberry.cli."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import hyperberry.cli"],
        env=ENV, cwd=ROOT, check=True, capture_output=True, text=True, timeout=120,
    )
    wanted = ("numpy", "mpmath", "scipy.integrate", "scipy.special", "hyperberry.cli")
    out = {}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] in wanted:
            out[parts[2]] = int(parts[1]) / 1e3
    return out


def main() -> int:
    sys.path.insert(0, SRC)
    import hyperberry
    import hyperberry.cli  # noqa: F401
    from hyperberry import exact, lab, stirling
    from hyperberry.params import HypParams

    rows = []
    bare = wall([sys.executable, "-c", "pass"])
    imported = wall([sys.executable, "-c", "import hyperberry.cli"])
    pmf_cli = wall([sys.executable, "-m", "hyperberry.cli", "pmf", "--n", "100", "--M", "100", "--N", "200", "--k", "50"])
    split = import_split()
    rows.append(("`hyperberry pmf` N=200, wall", "850 ms", f"{pmf_cli:.0f} ms", ""))
    rows.append(("bare `python -c pass`", "38 ms", f"{bare:.0f} ms", ""))
    rows.append(("`import hyperberry.cli` (fresh, minus bare)", "630 ms", f"{imported - bare:.0f} ms",
                 ", ".join(f"{k} {v:.0f} ms" for k, v in split.items() if k != "hyperberry.cli")))

    calls = [
        ("cold `pmf_exact` balanced N=1e7", "368 ms", lambda: exact.pmf_exact(HypParams(5_000_000, 5_000_000, 10**7), 2_500_000)),
        ("`delta_exact` balanced N=1e5", "6 ms", lambda: lab.delta_exact(HypParams(50_000, 50_000, 10**5))),
        ("`delta_exact` balanced N=1e6", "75 ms", lambda: lab.delta_exact(HypParams(500_000, 500_000, 10**6))),
        ("`delta_exact` balanced N=1e7", "720-850 ms", lambda: lab.delta_exact(HypParams(5_000_000, 5_000_000, 10**7))),
        ("rational `delta_exact` N=5000", "433 ms", lambda: lab.delta_exact(HypParams(2500, 2500, 5000))),
    ]
    lab.delta_exact(HypParams(100, 100, 200))  # the lazy scipy.special import
    per_span = Tracer.calibrate()
    for label, quoted, fn in calls:
        samples = []
        for _ in range(REPS):
            exact._table.cache_clear()
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        exact._table.cache_clear()
        tracer = Tracer(per_span=per_span)
        tracer.install(hyperberry)
        try:
            fn()
        finally:
            tracer.uninstall()
        top = sorted(tracer.self_time.items(), key=lambda kv: -kv[1])[:4]
        layers = ", ".join(f"{name} {sec * 1e3:.1f}" for name, sec in top)
        rows.append((label, quoted, f"{statistics.median(samples) * 1e3:.1f} ms", f"self ms: {layers}"))
    exact._table.cache_clear()

    params = HypParams(100, 100, 200)
    n_calls = 20_000
    t0 = time.perf_counter()
    for _ in range(n_calls):
        stirling.certified_pmf(params, 50, 0.5)
    per_call = (time.perf_counter() - t0) / n_calls * 1e6
    rows.append(("`certified_pmf`", "~10 us", f"{per_call:.1f} us", f"mean of {n_calls} calls"))

    rec = machine.record(ROOT)
    print(f"Machine: {rec['nproc']} CPUs, {rec['cpu_model']}, {rec['mem_total_mb']:.0f} MB, "
          f"Python {rec['python']}, numpy {rec['numpy']}, scipy {rec['scipy']}, mpmath {rec['mpmath']}, "
          f"commit {rec['commit'][:12]}.  Walls are medians of {REPS}.")
    print()
    print("| figure | ROADMAP (single run) | measured | per-layer (one traced call) |")
    print("|---|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
