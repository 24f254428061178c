"""Run ``misoid identify`` in this process, with spans around its calls.

    python3 perfbench/child.py RESULT MODE GRAM identify <config> [flags]

MODE ``coarse`` wraps only the set-up calls and the one call per chain;
MODE ``trace`` wraps every function in ``tracer.TRACED`` and samples the
resident set during the problem build.  With GRAM ``1`` a few cached
cross-products of the built problem are saved for the benchmark's own
Toeplitz check.  RESULT receives one JSON document; the exit code is the
one ``identify`` returned.
"""

from __future__ import annotations

import ctypes
import json
import os
import sys
import threading

import checks
from tracer import COARSE, ROOT, TRACED, Tracer

ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class ResidentPeak:
    """Highest resident set seen while the block runs, sampled every 10 ms,
    minus the resident set on entry."""

    def __init__(self):
        self.page = os.sysconf("SC_PAGE_SIZE")
        self.peak = self.base = 0
        self._stop = threading.Event()

    def _rss(self) -> int:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * self.page

    def _poll(self):
        while not self._stop.wait(0.01):
            self.peak = max(self.peak, self._rss())

    def __enter__(self):
        self.base = self.peak = self._rss()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self._rss())

    @property
    def grown_mb(self) -> float:
        return (self.peak - self.base) / 2 ** 20


def blas_environment() -> dict:
    """BLAS threads actually in effect, CPU count and library versions."""
    import numpy
    import scipy
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                threads[os.path.basename(path)] = getter()
                break
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "blas_threads": threads,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
    }


def main(argv) -> int:
    result_path, mode, gram, *identify = argv
    sys.path.insert(0, os.path.join(ROOT_DIR, "src"))
    from misoid import cli

    tracer = Tracer()
    tracer.install(TRACED if mode == "trace" else COARSE)
    built = []
    peak = {}
    inner = getattr(cli, "build_problem", None)

    def build_problem(*args, **kwargs):
        if mode != "trace":
            built.append(inner(*args, **kwargs))
            return built[-1]
        with ResidentPeak() as resident:
            built.append(inner(*args, **kwargs))
        peak["build_peak_mb"] = resident.grown_mb
        return built[-1]

    if inner is not None:
        cli.build_problem = build_problem
    code = tracer.wrap(ROOT, cli.main)(identify)

    doc = {"code": code, "mode": mode, "trace": tracer.dump(),
           "env": blas_environment(), **peak}
    if gram == "1" and built:
        doc["gram"] = checks.dump_cross_products(built[0].bank)
    with open(result_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
