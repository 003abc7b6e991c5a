"""The parity tool in table mode on this tree: one header, one digest per
output, and the sweep report the same at --jobs 1 and 2."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "parity.py"


def test_parity_table_has_a_kernel_header_and_every_row():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert re.match(r"numpy \S+ openblas: ", header)
    rows = dict(line.split() for line in lines)
    # the scene's two files, five outputs per mode and space, two sweeps
    assert len(lines) == len(rows) == 2 + 5 * 4 * 2 + 2
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest in rows.values())
    assert rows["sweep/jobs1.csv"] == rows["sweep/jobs2.csv"]
