"""Session hooks for every test directory. Checkpoint and score bits hold per
BLAS kernel, and NumPy's bundled OpenBLAS picks its kernel by CPU, so each
run ends by naming the kernel, config and thread count it ran on."""

import sys
from pathlib import Path

import pytest

# tools/parity.py owns the OpenBLAS lookup; tests import it as `parity`
sys.path.insert(0, str(Path(__file__).resolve().parent / "tools"))
from parity import bundled_openblas, openblas_line  # noqa: E402


@pytest.fixture
def openblas():
    return bundled_openblas()


def pytest_terminal_summary(terminalreporter):
    # the terminal summary prints under -q, where a report header does not
    terminalreporter.write_line(openblas_line())
