"""Environment record written beside every benchmark result.

Timings taken under a different BLAS build, BLAS thread count or core count
are not comparable; the record names all of them so a comparison between
two result files can be refused instead of made silently.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():   # a plain checkout; never report an enclosing repository
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, in path order.

    Identifies the code under test where the checkout is not a git
    repository and no commit hash can be read.
    """
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _loaded_blas_libraries() -> list[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    found = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in path.lower() and path.startswith("/") and path not in found:
                    found.append(path)
    except OSError:
        pass
    return found


def _blas_runtime() -> list[dict]:
    """Configuration string and thread count reported by each loaded OpenBLAS."""
    out = []
    for path in _loaded_blas_libraries():
        entry = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            out.append(entry)
            continue
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                entry["threads"] = int(get_threads())
                entry["config"] = get_config().decode(errors="replace")
                break
            if "threads" in entry:
                break
        out.append(entry)
    return out


def environment_record(root: Path, seed: int) -> dict:
    """Everything a result depends on besides the code: call after numpy/scipy import."""
    import numpy as np
    import scipy

    blas_build = {}
    try:
        blas_build = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root / "src" / "hcps"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": {k: blas_build.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_runtime": _blas_runtime(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "argv": sys.argv[1:],
    }
