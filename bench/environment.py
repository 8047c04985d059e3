"""The environment block printed with every result: interpreter, numpy and
its BLAS, processor, caches, and the code measured."""
from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _blas() -> dict:
    """BLAS name, version and thread count. The thread count is left at its
    default and only read, through the library numpy loaded."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(root: Path) -> str:
    """sha256 over the package sources; identifies the code when the checkout
    is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "scenesel").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def describe(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_cache": _read("/sys/devices/system/cpu/cpu0/cache/index2/size"),
        "l3_cache": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "commit": _commit(root),
        "src_sha256": _source_digest(root),
    }
