import ctypes
import os
from pathlib import Path

import numpy as np
import pytest

from multiprox import problems


def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, when it ships one."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    libs = sorted(libdir.glob("lib*openblas*.so*"))
    return ctypes.CDLL(str(libs[0])) if libs else None


def _blas_call(handle: ctypes.CDLL | None, symbols: tuple[str, ...], restype):
    """The first of ``symbols`` the library exposes, called with no arguments."""
    for symbol in symbols:
        fn = getattr(handle, symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def pytest_report_header(config):
    # bit-for-bit tests depend on how the BLAS blocks its kernels and on how
    # many threads it runs; name both in the log so that a mismatch
    # elsewhere can be read from it alone, and which paths could split
    # across two cores
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        name = "unknown"
    try:
        handle = _openblas()
    except OSError:
        handle = None
    # the runtime core is the kernel set OpenBLAS picked for this CPU
    core = _blas_call(handle, ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                               "openblas_get_corename"), ctypes.c_char_p)
    threads = _blas_call(handle, ("scipy_openblas_get_num_threads64_",
                                  "openblas_get_num_threads64_", "openblas_get_num_threads"),
                         ctypes.c_int)
    # prox rounds and generated eigenbases past the threshold split across
    # two cores when two may be used
    cpus = sorted(os.sched_getaffinity(0))
    split = f"on past {problems._SPLIT_MIN_BYTES >> 20} MiB" if len(cpus) > 1 else "off"
    return (f"numpy {np.__version__}, BLAS {name}, "
            f"runtime core {core.decode() if core else 'not exposed'}, "
            f"threads {'not exposed' if threads is None else threads}, "
            f"CPUs {','.join(map(str, cpus))}, "
            f"two-core split of stacked prox rounds and instance factoring {split}")


def pytest_configure(config):
    config._acceptance_verdicts = []


@pytest.fixture(scope="session")
def verdicts(request):
    """Registry of acceptance verdict lines, echoed after the run."""
    return request.config._acceptance_verdicts


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # the reporter writes to the real terminal, so the checklist survives
    # capture regardless of pass or fail
    lines = getattr(config, "_acceptance_verdicts", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
