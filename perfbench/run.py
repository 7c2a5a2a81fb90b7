"""hyperberry benchmark: one workload, end-to-end or traced, with checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload point_queries --seed 1 --seconds 20 --trace 0

Workloads: point_queries, lab_grid, cli_session (see ``workloads.py`` for
what each one does and why it was chosen).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` replays the run with every hyperberry
module wrapped and prints the per-layer metrics.  Every metric is printed
as ``name value unit``; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The workload runs in its own fresh worker process, so imports, caches and
peak RSS do not leak between workloads.  Set-up (imports, input
generation, warm-up) is measured in SETUP_SAMPLES fresh processes and
reported as the median.  Full results, including the machine record and
the output digest, are written under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import machine

WORKLOADS = ("point_queries", "lab_grid", "cli_session")
#: fresh processes that only set up; the measuring worker adds one more sample
SETUP_SAMPLES = 6
#: every run must end within this many seconds
DEADLINE = 175.0
HERE = os.path.dirname(os.path.abspath(__file__))


def worker(args, root: str, mode: str, deadline: float, spans: str | None = None) -> dict:
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", mode, "--root", root,
    ]
    if spans:
        argv += ["--spans", spans]
    # hyperberry makes no BLAS calls; without this, the idle BLAS threads
    # numpy and scipy start at import made some CLI commands use ~240 ms
    # more CPU than wall time
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS="1")
    left = deadline - time.monotonic()
    proc = subprocess.run(argv, env=env, cwd=root, capture_output=True, text=True, timeout=max(1.0, left))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hyperberry", "__init__.py")):
        print(f"no hyperberry source under {root}/src; run from the root of a checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            setup_samples.append(worker(args, root, "setup", deadline)["setup_s"])
    result = worker(args, root, "run", deadline, spans=stem + "-spans.tsv" if args.trace else None)
    if not args.trace:
        setup_samples.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup_samples)
        result["notes"]["setup_s"] = "median of " + ", ".join(f"{s:.4f}" for s in setup_samples)
    result["machine"] = machine.record(root)
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    notes = result["notes"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in result["machine"].items()))
    print(f"units    {result['units']} {result['unit_name']}(s); traced {result.get('trace_units', 0)}")
    for name, m in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:36s} {fmt(m['value']):>14s} {m['unit']}{note}")
    print(f"digest   sha256:{result['digest']} over the first {result['digest_units']} {result['unit_name']}(s)")
    print(f"checked  {result['attempted']} operations, {result['failed']} failed, correct={result['correct']}")
    for cause, entry in sorted(result["failures"].items()):
        print(f"  {entry['count']:6d} x {cause}  (e.g. {entry['example']})")
    print("findings " + "  ".join(f"{k}={fmt(v)}" for k, v in sorted(result["findings"].items())))
    print(f"full result in {os.path.relpath(stem + '.json', root)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
