"""Byte-for-byte parity of everything rdosr writes, as one digest table.

    python tools/parity.py                      # the table for this tree
    python tools/parity.py --against REV        # also REV's tree; rows that differ
    OPENBLAS_CORETYPE=Haswell python tools/parity.py --against REV

The tree is driven only through `python -m rdosr` subprocesses with
PYTHONPATH=<tree>/src, at a tiny profile: a synthetic scene, one training
and evaluation per mode and space, and the leave-one-class-out sweep at
--jobs 1 and 2. Each row is the SHA-256 of one output. The header names
NumPy and the OpenBLAS kernel, config and thread count, because checkpoint
bits hold per BLAS kernel. --against REV unpacks `git archive REV` into a
temporary directory, builds the same table there and exits 1 if any row
differs; a command that fails exits 2. Every subprocess inherits the
environment, so OPENBLAS_CORETYPE=NAME runs both trees under that kernel.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

MODES = ("rdosr", "softmax", "ae_cls", "ae_cls_dirichlet")
SPACES = ("embedding", "image")
# the scene, the held-out class and the training profile: every stage runs
# a few steps, so each kernel a checkpoint's bits come from is exercised, and
# the noise keeps every AUC and accuracy below 1, so the eval rows see scores
SYNTH = ["--classes", "4", "--bands", "16", "--per-class", "40", "--seed", "3",
         "--noise-sigma", "0.5"]
HELD_OUT = "3"
PROFILE = ["--seed", "7", "--set", "epochs_stage1=3", "--set", "epochs_stage2=4",
           "--set", "batch_size=32"]


class ParityError(Exception):
    """A command the table needs failed."""


def bundled_openblas():
    """NumPy's bundled scipy-openblas library, or None where NumPy has none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))
    lib = ctypes.CDLL(paths[0]) if paths else None
    return lib if lib is not None and hasattr(lib, "scipy_openblas_get_num_threads64_") else None


def openblas_line() -> str:
    """`openblas: corename=... config=... num_threads=...` for this process."""
    lib = bundled_openblas()
    if lib is None:
        return "openblas: not bundled with this NumPy"
    facts = []
    for name, kind in (("corename", ctypes.c_char_p), ("config", ctypes.c_char_p),
                       ("num_threads", ctypes.c_int)):
        fn = getattr(lib, f"scipy_openblas_get_{name}64_")
        fn.argtypes, fn.restype = [], kind
        value = fn()
        facts.append(f"{name}={value.decode() if isinstance(value, bytes) else value}")
    return "openblas: " + " ".join(facts)


def _rdosr(env, cwd: Path, *args: str, ok=(0,)) -> bytes:
    proc = subprocess.run([sys.executable, "-m", "rdosr", *args], env=env, cwd=cwd,
                          capture_output=True)
    if proc.returncode not in ok:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        raise ParityError(f"rdosr {args[0]} exited {proc.returncode} under "
                          f"PYTHONPATH={env['PYTHONPATH']}: {' '.join(tail)}")
    return proc.stdout


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_table(tree: Path) -> list[tuple[str, str]]:
    """(row name, SHA-256) for every output of the tiny profile on `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    rows: list[tuple[str, str]] = []
    with tempfile.TemporaryDirectory(prefix="rdosr-parity-") as tmp:
        work = Path(tmp)
        _rdosr(env, work, "synth", "--out", "scene", *SYNTH)
        scene = ["--cube", "scene/cube.hsid", "--labels", "scene/labels.hsil"]
        for name in ("cube.hsid", "labels.hsil"):
            rows.append((f"synth/{name}", _digest((work / "scene" / name).read_bytes())))
        for mode in MODES:
            for space in SPACES:
                run = f"{mode}-{space}"
                _rdosr(env, work, "train", *scene, *PROFILE, "--unknown", HELD_OUT,
                       "--set", f"mode={mode}", "--set", f"space={space}", "--out", run)
                out = _rdosr(env, work, "eval", "--model", run, *scene,
                             "--roc-out", f"{run}/roc.csv", "--hist-out", f"{run}/hist.csv")
                for name in ("model.rdck", "manifest.txt"):
                    rows.append((f"{run}/{name}", _digest((work / run / name).read_bytes())))
                rows.append((f"{run}/eval.stdout", _digest(out)))
                for name in ("roc.csv", "hist.csv"):
                    rows.append((f"{run}/{name}", _digest((work / run / name).read_bytes())))
        for jobs in ("1", "2"):
            report = f"sweep-jobs{jobs}.csv"
            # exit 4 (a run failed) still writes the report, whose rows say so
            _rdosr(env, work, "sweep", *scene, *PROFILE, "--jobs", jobs, "--report", report,
                   ok=(0, 4))
            rows.append((f"sweep/jobs{jobs}.csv", _digest((work / report).read_bytes())))
    return rows


def unpack(rev: str, dest: Path) -> Path:
    """`git archive REV` of this repository, unpacked under `dest`."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True)
    if archive.returncode != 0:
        raise ParityError(f"git archive {rev}: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest


def _print_table(rows) -> None:
    width = max(len(name) for name, _ in rows)
    for name, digest in rows:
        print(f"{name:<{width}}  {digest}")


def _run(against: str | None) -> int:
    """Print the table; returns the number of rows that differ from `against`."""
    with tempfile.TemporaryDirectory(prefix="rdosr-parity-tree-") as tmp:
        base = unpack(against, Path(tmp)) if against else None  # fails before any run
        # the subprocesses inherit this environment, and with it this kernel
        print(f"numpy {np.__version__}", openblas_line())
        rows = digest_table(ROOT)
        _print_table(rows)
        if base is None:
            return 0
        diffs = [(name, mine, theirs)
                 for (name, mine), (_, theirs) in zip(rows, digest_table(base)) if mine != theirs]
    print(f"against {against}: {len(diffs)} of {len(rows)} rows differ")
    for name, mine, theirs in diffs:
        print(f"  {name}: {mine[:16]} here, {theirs[:16]} at {against}")
    return len(diffs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="git revision to compare with")
    args = parser.parse_args(argv)
    try:
        differ = _run(args.against)
    except ParityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
