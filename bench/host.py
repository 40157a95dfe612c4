"""Read-only record of the host a result was measured on.

Everything comes from os, /proc and the read-only sysfs cache description;
nothing here changes a machine setting.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def _caches() -> dict:
    """Data/unified cache sizes by level, e.g. {"L2": "2048K"}."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(index / "size").strip()
    if not out:
        for line in _read("/proc/cpuinfo").splitlines():
            if line.startswith("cache size"):
                out["cache_size"] = line.split(":", 1)[1].strip()
                break
    return out


def _ram_mb() -> float | None:
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) / 1024.0
    return None


def _git_commit(root: Path) -> str | None:
    head = _read(root / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(root / ".git" / ref).strip()
        if not commit:
            for line in _read(root / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or None
    return head or None


def source_digest(root: Path) -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host_record(root: Path, versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "ram_mb": _ram_mb(),
        "versions": versions,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
    }
