"""Import the tree under test from its ``src`` and describe what ran.

Only ``os`` and ``sys`` are imported at module level: the worker calls
``import_cli`` first thing, and everything it loads before ``hetfb.cli`` is
counted as set-up time.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def import_cli():
    """Import ``hetfb.cli`` from ``<root>/src``; refuse any other copy."""
    sys.path.insert(0, SRC)
    import hetfb.cli

    pkg = os.path.realpath(os.path.dirname(sys.modules["hetfb"].__file__))
    if pkg != os.path.realpath(os.path.join(SRC, "hetfb")):
        raise ImportError(f"hetfb was imported from {pkg}, not from {SRC}")
    return hetfb.cli


def _git(*args):
    import subprocess

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30, env=env
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest():
    """SHA-256 over the package sources, for checkouts that are not git repos."""
    import hashlib

    h = hashlib.sha256()
    pkg = os.path.join(SRC, "hetfb")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def collect():
    """Machine, versions, threads and the identity of the code under test."""
    import platform

    import mpmath
    import numpy
    import scipy

    git_dir = os.path.isdir(os.path.join(ROOT, ".git"))
    status = _git("status", "--porcelain", "--", "src", "perfbench") if git_dir else None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": _git("rev-parse", "HEAD") if git_dir else None,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": _src_digest(),
        # relative to the checkout root; import_cli already refused any other copy
        "hetfb_file": os.path.relpath(os.path.realpath(sys.modules["hetfb"].__file__), ROOT),
        "hetfb_version": getattr(sys.modules["hetfb"], "__version__", None),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }
