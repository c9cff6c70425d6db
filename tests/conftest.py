import ctypes
from pathlib import Path

import numpy as np
import pytest


def _blas_core() -> str | None:
    """OpenBLAS's runtime core (the kernel set it picked for this CPU), when exposed."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def pytest_report_header(config):
    # bit-for-bit tests depend on how the BLAS blocks its kernels; name it
    # in the log so that a mismatch elsewhere can be read from it alone
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        name = "unknown"
    try:
        core = _blas_core()
    except OSError:
        core = None
    return f"numpy {np.__version__}, BLAS {name}, runtime core {core or 'not exposed'}"


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
