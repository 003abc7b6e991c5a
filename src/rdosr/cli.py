"""Command-line front end: dataset synthesis, training, evaluation, and the
leave-one-class-out sweep.

Hyperparameters come from a key=value config file (# starts a comment);
recognized keys are the TrainConfig fields plus cube, labels, unknown, and
train_fraction. Flags override file values. Exit codes: 0 success, 2
usage/IO problem, 3 numerical failure, 4 sweep with failed runs, 130 Ctrl-C.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import data, models, openset
from .diffcore import DomainError, NumericError, ShapeError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_PARTIAL = 4
EXIT_INTERRUPTED = 130

CHECKPOINT_NAME = "model.rdck"
MANIFEST_NAME = "manifest.txt"


class CliError(Exception):
    """Bad invocation or unusable input files."""


_FIELDS = fields(models.TrainConfig)
_KEYS = {f.name for f in _FIELDS} | {"cube", "labels", "unknown", "train_fraction"}


def _key_value(item: str, where: str) -> tuple[str, str]:
    """Split `key=value` at the first `=`; the key must be a config key."""
    if "=" not in item:
        raise CliError(f"{where}: expected key=value, got {item!r}")
    key, value = (part.strip() for part in item.split("=", 1))
    if key not in _KEYS:
        raise CliError(f"{where}: unknown config key {key!r}")
    return key, value


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse key=value lines; unknown keys are rejected."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = _key_value(line, f"{source}:{lineno}")
            values[key] = value
    return values


def _coerce(key: str, value: str, kind: type):
    try:
        return kind(value)
    except ValueError as exc:
        raise CliError(f"config key {key}: {exc}") from exc


def build_train_config(values: dict[str, str]) -> models.TrainConfig:
    # each field parses as the type of its default
    kwargs = {f.name: _coerce(f.name, values[f.name], type(f.default))
              for f in _FIELDS if f.name in values}
    try:
        return models.TrainConfig(**kwargs)
    except DomainError as exc:
        raise CliError(str(exc)) from exc


def _merge_config(args) -> dict[str, str]:
    values: dict[str, str] = {}
    if args.config:
        path = Path(args.config)
        try:
            values.update(parse_config_text(path.read_text(encoding="utf-8"), str(path)))
        except UnicodeDecodeError as exc:
            raise CliError(f"config file {path} is not UTF-8: {exc}") from exc
    values.update(_key_value(item, "--set") for item in args.set or [])
    # explicit flags win over both the file and --set
    for key in ("cube", "labels", "unknown", "seed", "train_fraction"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = str(flag)
    return values


def _parse_unknown(text: str) -> tuple[int, ...]:
    try:
        ids = tuple(sorted({int(part) for part in text.split(",") if part.strip()}))
    except ValueError as exc:
        raise CliError(f"--unknown expects comma-separated class ids, got {text!r}") from exc
    if not ids:
        raise CliError("--unknown lists no classes")
    return ids


def _load_dataset(values: dict[str, str]) -> tuple[data.HsiDataset, Path, Path]:
    for key in ("cube", "labels"):
        if key not in values:
            raise CliError(f"missing required input: {key} (flag or config key)")
    cube_path, label_path = Path(values["cube"]), Path(values["labels"])
    dataset = data.pair(data.load_cube(cube_path), data.load_labels(label_path))
    return dataset, cube_path, label_path


def _require_directory(path: Path, parents: bool) -> None:
    """Refuse, creating nothing, a directory that is missing or, with `parents`, cannot be made."""
    while parents and path != path.parent and not path.exists():
        path = path.parent
    if not path.is_dir():
        raise CliError(f"{path} is not a directory")


def _require_output_files(outputs: dict[str, str | None], inputs: dict[str, object]) -> None:
    """Refuse, creating nothing, an output file path that is a directory, lies
    in no directory, or resolves to one of `inputs` or to an earlier output."""
    taken = {Path(path).resolve(): name for name, path in inputs.items() if path}
    for flag, path in ((flag, Path(raw)) for flag, raw in outputs.items() if raw):
        _require_directory(path.parent, parents=False)
        if path.is_dir():
            raise CliError(f"{path} is a directory")
        other = taken.setdefault(path.resolve(), flag)
        if other != flag:
            raise CliError(f"{flag} {path} names the same file as {other}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(path: Path, entries: list[tuple[str, object]]) -> None:
    # repr() on floats keeps round-trip fidelity in the echoed config
    lines = [
        f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"
        for key, value in entries
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    if args.classes < 2:
        raise CliError("--classes must be >= 2 (open-set evaluation needs a holdout)")
    dataset = data.synth_generate(
        l_total=args.classes,
        bands=args.bands,
        per_class=args.per_class,
        bases_per_class=args.bases_per_class,
        dirichlet_alpha=args.alpha,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cube_path, label_path = out / "cube.hsid", out / "labels.hsil"
    data.dataset_to_files(cube_path, label_path, dataset)
    print(
        f"wrote {cube_path} and {label_path}: {dataset.pixel_count} pixels, "
        f"{dataset.class_count} classes, {dataset.band_count} bands"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    values = _merge_config(args)
    if "unknown" not in values:
        raise CliError("missing required input: unknown (flag or config key)")
    unknown = _parse_unknown(values["unknown"])
    train_fraction = _coerce("train_fraction", values.get("train_fraction", "0.5"), float)
    config = build_train_config(values)
    dataset, cube_path, label_path = _load_dataset(values)
    out = Path(args.out)
    _require_directory(out, parents=True)

    model, logs, _ = models.train_pipeline(dataset, unknown, config, train_fraction)

    out.mkdir(parents=True, exist_ok=True)
    models.save_checkpoint(out / CHECKPOINT_NAME, model)

    entries: list[tuple[str, object]] = list(asdict(config).items())
    entries += [
        ("train_fraction", train_fraction),
        ("unknown_classes", ",".join(str(u) for u in unknown)),
        ("known_class_ids", ",".join(str(k) for k in model.known_class_ids)),
        ("band_count", dataset.band_count),
        ("class_count", dataset.class_count),
        ("cube_sha256", _sha256(cube_path)),
        ("labels_sha256", _sha256(label_path)),
    ]
    stage1 = logs["stage1"]
    entries += [
        ("stage1_epochs_run", len(stage1)),
        ("stage1_final_loss", stage1[-1].loss if stage1 else float("nan")),
        ("stage1_final_accuracy", stage1[-1].accuracy if stage1 else float("nan")),
    ]
    if config.mode != "softmax":
        stage2 = logs["stage2"]
        entries += [
            ("stage2_epochs_run", len(stage2)),
            ("stage2_final_loss", stage2[-1].loss if stage2 else float("nan")),
            ("stage2_final_recon", stage2[-1].recon if stage2 else float("nan")),
        ]
    _write_manifest(out / MANIFEST_NAME, entries)
    acc = stage1[-1].accuracy if stage1 else float("nan")
    print(f"trained {config.mode} model on {len(model.known_class_ids)} known classes; "
          f"stage1 accuracy {acc:.4f}; checkpoint at {out / CHECKPOINT_NAME}")
    return EXIT_OK


def _resolve_model_path(raw: str) -> Path:
    path = Path(raw)
    if path.is_dir():
        path = path / CHECKPOINT_NAME
    if not path.is_file():
        raise CliError(f"checkpoint not found: {path}")
    return path


def cmd_eval(args) -> int:
    if args.bins < 1:
        raise CliError("--bins must be >= 1")
    model_path = _resolve_model_path(args.model)
    _require_output_files({"--roc-out": args.roc_out, "--hist-out": args.hist_out},
                          {"the checkpoint": model_path, "the cube": args.cube,
                           "the labels": args.labels})
    model = models.load_checkpoint(model_path)
    dataset, _, _ = _load_dataset({"cube": args.cube, "labels": args.labels})
    parts = data.split(
        dataset,
        data.SplitSpec(
            frozenset(model.unknown_class_ids), model.train_fraction, model.config.seed
        ),
    )
    # split chose the model's known classes at training time, from the same ids
    if parts.known_class_ids != model.known_class_ids:
        raise CliError(f"model knows classes {list(model.known_class_ids)}, but holding out "
                       f"{list(model.unknown_class_ids)} leaves {list(parts.known_class_ids)}")
    known_scores, predictions = model.open_score(parts.test_known.pixels, with_labels=True)
    unknown_scores = model.open_score(parts.unknown_pool.pixels)
    curve = openset.roc(known_scores, unknown_scores)
    accuracy = float(np.mean(predictions == parts.test_known.labels))
    open_frac = openset.openness(model.n_known, dataset.class_count, model.n_known)
    print(f"auc={curve.auc:.4f}")
    print(f"closed_set_accuracy={accuracy:.4f}")
    print(f"openness={open_frac:.4f}")
    if args.roc_out:
        openset.export_roc(args.roc_out, curve)
    if args.hist_out:
        # every score is a norm or one minus a probability, so none is negative
        hi = max(float(known_scores.max()), float(unknown_scores.max())) or 1.0
        openset.export_histogram(args.hist_out, known_scores, unknown_scores, args.bins, 0.0, hi)
    return EXIT_OK


def cmd_sweep(args) -> int:
    values = _merge_config(args)
    train_fraction = _coerce("train_fraction", values.get("train_fraction", "0.5"), float)
    config = build_train_config(values)
    dataset, _, _ = _load_dataset(values)
    _require_output_files({"--report": args.report}, {"the cube": values["cube"],
                          "the labels": values["labels"], "the config file": args.config})
    report = openset.sweep(dataset, config, train_fraction, jobs=args.jobs)
    openset.export_sweep(args.report, report)
    print(f"average_auc={report.average_auc:.4f}")
    for row in report.failed:
        print(f"failed: {row.error}", file=sys.stderr)
    return EXIT_PARTIAL if report.failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdosr",
        description="Open-set land-cover pixel classification via reconstruction error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--cube")
    shared.add_argument("--labels")
    shared.add_argument("--config", help="key=value config file")
    shared.add_argument("--seed", type=int)
    shared.add_argument("--train-fraction", type=float, dest="train_fraction")
    shared.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")

    p = sub.add_parser("synth", help="generate a synthetic linear-mixing dataset")
    p.add_argument("--out", required=True, help="output directory for cube.hsid/labels.hsil")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--bands", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True, dest="per_class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bases-per-class", type=int, default=2, dest="bases_per_class")
    p.add_argument("--alpha", type=float, default=1.0, help="symmetric Dirichlet concentration")
    p.add_argument("--noise-sigma", type=float, default=0.01, dest="noise_sigma")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("train", parents=[shared], help="train both stages on one known/unknown partition")
    p.add_argument("--unknown", help="comma-separated unknown class ids")
    p.add_argument("--out", required=True, help="output directory for checkpoint + manifest")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="score a trained model and export curves")
    p.add_argument("--model", required=True, help="checkpoint file or its directory")
    p.add_argument("--cube", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--roc-out", dest="roc_out")
    p.add_argument("--hist-out", dest="hist_out")
    p.add_argument("--bins", type=int, default=50)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("sweep", parents=[shared], help="leave-one-class-out protocol over every class")
    p.add_argument("--report", required=True, help="output CSV path")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(handler=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        # a floating-point overflow, invalid operation or division by zero
        # stops the run where it arises, as a NumericError would
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.handler(args)
    except (CliError, data.FormatError, DomainError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def entry() -> None:
    sys.exit(main())
