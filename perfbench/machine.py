"""Machine record attached to every result.

Reads only: ``/proc`` and ``/sys`` files, package metadata (no package is
imported) and the ``.git`` directory when the checkout has one.
"""
from __future__ import annotations

import os
import platform
from importlib import metadata


def _read(path: str) -> str | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _mem_total_mb() -> float | None:
    text = _read("/proc/meminfo") or ""
    for line in text.splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) / 1024.0
    return None


def _cgroup_paths(controller: str) -> list[str]:
    """Candidate cgroup directories for ``controller`` (v2 first, then v1)."""
    own = ""
    for line in (_read("/proc/self/cgroup") or "").splitlines():
        parts = line.split(":", 2)
        if len(parts) == 3 and controller in parts[1].split(","):
            own = parts[2]
    return ["/sys/fs/cgroup", f"/sys/fs/cgroup/{controller}{own}", f"/sys/fs/cgroup/{controller}"]


def _cgroup_cpu_limit() -> str:
    if (v2 := _read("/sys/fs/cgroup/cpu.max")) is not None:
        return v2
    for base in _cgroup_paths("cpu"):
        quota = _read(f"{base}/cpu.cfs_quota_us")
        period = _read(f"{base}/cpu.cfs_period_us")
        if quota is not None and period is not None:
            return "max" if quota == "-1" else f"{int(quota) / int(period):g} cpus"
    return "unknown"


def _cgroup_mem_limit() -> str:
    if (v2 := _read("/sys/fs/cgroup/memory.max")) is not None:
        return v2
    for base in _cgroup_paths("memory"):
        raw = _read(f"{base}/memory.limit_in_bytes")
        if raw is not None:
            value = int(raw)
            # v1 reports "unlimited" as a huge page-aligned number
            return "max" if value >= 1 << 60 else f"{value / 2**20:.0f} MB"
    return "unknown"


def _git_commit(root: str) -> str:
    git = os.path.join(root, ".git")
    head = _read(os.path.join(git, "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(os.path.join(git, ref))
    if direct:
        return direct
    for line in (_read(os.path.join(git, "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def record(root: str) -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": affinity or os.cpu_count(),
        "cpu_model": _cpu_model(),
        "mem_total_mb": _mem_total_mb(),
        "cgroup_cpu_limit": _cgroup_cpu_limit(),
        "cgroup_mem_limit": _cgroup_mem_limit(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "commit": _git_commit(root),
    }
