"""Process environment of a benchmark run: thread pools, source path, machine record.

pin_threads() must run before numpy is first imported, because OpenBLAS and
OpenMP read their pool sizes once, at load time.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Every BLAS/OpenMP pool runs one thread. numpy and scipy link OpenBLAS,
#: whose default pool uses every core, so unpinned user time exceeds real
#: time and timings depend on what else the machine runs.
THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    for var in _THREAD_VARS:
        os.environ[var] = str(THREADS)


def use_checkout_source() -> None:
    """Import ddvef from this checkout's src/, never from an installed copy.

    Exits with status 1 when the checkout has no source tree, so a directory
    holding only the benchmark fails before it measures anything.
    """
    if not (SRC / "ddvef" / "__init__.py").is_file():
        sys.exit(f"benchmark: no ddvef source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout read from .git directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        "git_commit": _git_commit(),
    }
