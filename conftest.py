"""Session hooks for every test directory. Checkpoint and score bits hold per
BLAS kernel, and NumPy's bundled OpenBLAS picks its kernel by CPU, so each
run ends by naming the kernel, config and thread count it ran on."""

import ctypes
import glob
import os

import numpy as np
import pytest


def _bundled_openblas():
    """NumPy's bundled scipy-openblas library, or None where NumPy has none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))
    lib = ctypes.CDLL(paths[0]) if paths else None
    return lib if lib is not None and hasattr(lib, "scipy_openblas_get_num_threads64_") else None


@pytest.fixture
def openblas():
    return _bundled_openblas()


def pytest_terminal_summary(terminalreporter):
    # the terminal summary prints under -q, where a report header does not
    lib = _bundled_openblas()
    if lib is None:
        terminalreporter.write_line("openblas: not bundled with this NumPy")
        return
    facts = []
    for name, kind in (("corename", ctypes.c_char_p), ("config", ctypes.c_char_p),
                       ("num_threads", ctypes.c_int)):
        fn = getattr(lib, f"scipy_openblas_get_{name}64_")
        fn.argtypes, fn.restype = [], kind
        value = fn()
        facts.append(f"{name}={value.decode() if isinstance(value, bytes) else value}")
    terminalreporter.write_line("openblas: " + " ".join(facts))
