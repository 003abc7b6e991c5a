"""rdosr benchmark: one closed-loop workload per invocation.

    python3 bench/run.py --workload train_stage2 --seed 1 --seconds 50 --trace 0

Run from the repository root; the program is imported from ./src and
nowhere else. The seed makes the scenes and seeds the training. Set-up runs
several times and is timed; after one unmeasured warm-up operation,
operations repeat, each waiting for the last, for about --seconds. With
--trace 0 the end-to-end metrics are reported (medians). With --trace 1
untraced and traced operations alternate, and the per-layer metrics and the
tracing overhead are reported. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Results, the environment and (when traced)
the spans are also written to .bench_out/. --smoke shrinks every workload
to a few seconds in all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import LABELS, NAMES as LAYER_NAMES, install_hooks, layer_metrics  # noqa: E402
from tracing import Spans, Tracer, span  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS, OpResult, median  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("op_s", "s"),
    ("px_per_s", "px/s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
)
MIN_OPS = 3
# set-up repeats at least the workload's setup_reps times and for at least
# this long, so that its median holds still when one set-up takes milliseconds
SETUP_MIN_S = 1.5
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def import_program():
    """Import rdosr from this checkout's src/, or exit without a result."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import rdosr
        import rdosr.cli  # noqa: F401 - makes rdosr.cli an attribute
    except ImportError as exc:
        sys.exit(f"bench: cannot import rdosr from {src}: {exc}")
    if not Path(rdosr.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: rdosr was imported from {rdosr.__file__}, not from {src}")
    return rdosr


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def failure(exc: Exception, wall_s: float) -> OpResult:
    last = traceback.format_exception_only(type(exc), exc)[-1].strip()
    return OpResult(wall_s=wall_s, px=0, auc=float("nan"), errors=[last])


def run_op(fn) -> OpResult:
    t0 = perf_counter()
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        return failure(exc, perf_counter() - t0)


def timed_setups(workload, tracer=None) -> tuple[list[float], list[str]]:
    times, errors = [], []
    while len(times) < workload.setup_reps or sum(times) < SETUP_MIN_S:
        with tracer.installed() if tracer else nullcontext(), span(tracer, "bench.setup"):
            t0 = perf_counter()
            errors += workload.setup()
            times.append(perf_counter() - t0)
    return times, errors


def keep_going(started: float, walls: list[float], seconds: float, minimum: int) -> bool:
    # stop when the next operation would end more than half past the window
    elapsed = perf_counter() - started
    return len(walls) < minimum or elapsed + median(walls) / 2 < seconds


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(workload, seconds: float) -> tuple[dict, list[OpResult], dict]:
    setup_times, setup_errors = timed_setups(workload)
    if setup_errors:
        raise RuntimeError(f"set-up is not repeatable: {setup_errors}")
    workload.prepare()
    run_op(workload.warm_up)
    results: list[OpResult] = []
    started = perf_counter()
    while keep_going(started, [r.wall_s for r in results], seconds, MIN_OPS):
        results.append(run_op(workload.op))
    ok = [r for r in results if not r.errors]
    attempted = len(results)
    metrics = {
        "setup_s": median(setup_times),
        "op_s": median([r.wall_s for r in ok]),
        "px_per_s": median([r.px / r.wall_s for r in ok]),
        "peak_rss_mb": peak_rss_mb(),
        "ok_rate": len(ok) / attempted,
    }
    samples = {"setup_s": setup_times, "op_s": [r.wall_s for r in results],
               "auc": [r.auc for r in results]}
    return metrics, results, samples


def per_layer(workload, seconds: float, spans_path: Path) -> tuple[dict, list[OpResult], dict]:
    tracer = Tracer(workload.rdosr)
    install_hooks(tracer, workload.rdosr)
    setup_times, setup_errors = timed_setups(workload, tracer)
    if setup_errors:
        raise RuntimeError(f"set-up is not repeatable: {setup_errors}")
    workload.prepare()
    run_op(workload.warm_up)
    results: list[OpResult] = []
    plain, traced, pair_walls = [], [], []
    started = perf_counter()
    while keep_going(started, pair_walls, seconds, 1):
        t0 = perf_counter()
        try:
            # alternate the order so that neither side always runs first
            p, t = workload.trace_pair(tracer, traced_first=len(pair_walls) % 2 == 1)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            results.append(failure(exc, perf_counter() - t0))
            pair_walls.append(perf_counter() - t0)
            continue
        pair_walls.append(perf_counter() - t0)
        results += [p, t]
        plain.append(p)
        traced.append(t)
    tracer.write(spans_path)
    overhead = median([t.wall_s for t in traced]) - median([p.wall_s for p in plain])
    extra = {
        "auc": median([t.auc for t in traced]),
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / median([p.wall_s for p in plain]) if plain else 0.0,
    }
    metrics = layer_metrics(
        Spans(tracer), len(traced), median([t.stage1_epochs for t in traced]), extra
    )
    samples = {"plain_s": [p.wall_s for p in plain], "traced_s": [t.wall_s for t in traced]}
    return metrics, results, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    rdosr = import_program()
    out_dir = ROOT / ".bench_out"
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    sizes = (SMOKE if args.smoke else FULL)[args.workload]
    workload = WORKLOADS[args.workload](rdosr, sizes, args.seed, work)
    try:
        if args.trace:
            metrics, results, samples = per_layer(workload, args.seconds, out_dir / f"{tag}.spans.npz")
            units = dict(LAYER_NAMES)
        else:
            metrics, results, samples = end_to_end(workload, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in results if r.errors]
    not_finite = [name for name in units if not math.isfinite(metrics[name])]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "digests": workload.digests,
        "samples": samples,
        "errors": sorted({e for r in failed for e in r.errors}) + [f"{n} is not finite" for n in not_finite],
        "labels": {name: LABELS[name] for name in units if name in LABELS},
    }
    result = {
        "correct": not failed and not not_finite,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {
            name: {"value": 0.0 if name in not_finite else float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    (out_dir / f"{tag}.json").write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    for name, unit in units.items():
        label = f"  ({LABELS[name]})" if name in LABELS else ""
        print(f"{name:28s} {metrics[name]:>16.6g} {unit}{label}")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
