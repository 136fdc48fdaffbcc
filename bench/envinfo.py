"""Hardware and environment record printed with every benchmark run."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "ACC_SPECGRAM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def _blas() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    return {k: deps.get(k) for k in ("name", "version", "openblas configuration")
            if deps.get(k)}


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def describe(root: Path) -> dict:
    import numpy as np
    return {
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "ram_mb": round(os.sysconf("SC_PAGE_SIZE")
                        * os.sysconf("SC_PHYS_PAGES") / 1e6),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
    }
