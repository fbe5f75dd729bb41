"""Command-line front end: feature extraction, correlation ranking, model
training, evaluation and dataset reports on QATS-format data.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import DataFormatError, TsevalError, at_least, read_lines
from . import qats_io
from .features import FeatureMatrix, compute_matrix
from .mtmetrics import SearchBudgetWarning
from .qemodel import (
    DEFAULT_FOLDS,
    DEFAULT_PCA_COMPONENTS,
    DEFAULT_SEED,
    LAMBDA_GRID,
    MODEL_KINDS,
    IterationCapWarning,
    PipelineConfig,
    fit_pipeline,
    load_pipeline,
    save_pipeline,
    score_pipeline,
    select_lambda,
)
from .resources import (
    Resources,
    load_concreteness,
    load_frequency_table,
    load_vectors,
    train_lm,
)
from .stats import rank_features

RESOURCE_ENV = "TSEVAL_RESOURCES"

# QATS 2016 shared-task leaderboard reference points (plus the linear-model
# entries added alongside them), printed by `evaluate` for context.
LEADERBOARD_PEARSON = {
    "G": (("OSVCML1", 0.482), ("METEOR", 0.384), ("Lasso", 0.327)),
    "M": (("IIT-Meteor", 0.588), ("Ridge", 0.575), ("Lasso", 0.555)),
    "S": (("Ridge", 0.487), ("LinearSVR", 0.456), ("OSVCML1", 0.382)),
    "Overall": (("Ridge", 0.423), ("LinearRegression", 0.423),
                ("OSVCML2", 0.343)),
}
LEADERBOARD_F1 = {
    "G": (("SMH-RandForest", 71.84), ("LogisticRegression", 70.43),
          ("Majority-class", 65.89)),
    "M": (("SVC", 70.14), ("SMH-Logistic", 68.07), ("Majority-class", 42.51)),
    "S": (("SVC", 61.60), ("AdaBoostClassifier", 56.95),
          ("Majority-class", 39.68)),
    "Overall": (("LogisticRegression", 49.61), ("SMH-RandForest-b", 48.57),
                ("Majority-class", 26.53)),
}


class UsageError(Exception):
    """Bad flag combination discovered after argument parsing."""


def _path(text: str) -> str:
    if not text:
        raise ValueError("empty value")
    return text


def _feature_list(text: str) -> list[str]:
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise ValueError(f"no feature named in {text!r}")
    return names


def _dimension(text: str) -> str:
    try:
        return qats_io.normalize_dimension(text)
    except DataFormatError as exc:
        raise ValueError(exc) from None


def _model_kind(text: str) -> str:
    if text not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {text!r} "
                         f"(choose from {', '.join(MODEL_KINDS)})")
    return text


# Every setting a flag or a config-file line may give: the converter of
# its text, which raises ValueError with the reason, and its help.
_SETTINGS = {
    "train": (_path, "training dataset TSV"),
    "test": (_path, "test dataset TSV"),
    "freq_table": (_path, "word frequency table (one word per line)"),
    "concreteness": (_path, "concreteness lexicon file"),
    "vectors": (_path, "word vectors in text format"),
    "lm_corpus": (_path, "language-model training corpus (one sentence/line)"),
    "features": (_feature_list, "comma-separated feature subset (default: "
                                "all whose resources are available)"),
    "dimension": (_dimension, "quality dimension: G, M, S or overall"),
    "model": (_model_kind, "model kind: " + ", ".join(MODEL_KINDS)),
    "lam": (at_least(0.0, float), "fixed regularization strength (default: "
                                  "pick from the grid by cross-validation)"),
    "pca_k": (at_least(1, int), "number of PCA components"),
    "folds": (at_least(2, int), "number of cross-validation folds"),
    "seed": (at_least(0, int), "seed of the cross-validation folds"),
    "out": (_path, "output directory"),
}
# The value of each setting that neither a flag nor the config file gives.
_DEFAULTS = dict.fromkeys(_SETTINGS) | {
    "model": "ridge", "pca_k": DEFAULT_PCA_COMPONENTS,
    "folds": DEFAULT_FOLDS, "seed": DEFAULT_SEED, "out": ".",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tseval",
        description="Reference-less quality estimation for text simplification",
    )
    shared = argparse.ArgumentParser(add_help=False)
    group = shared.add_argument_group("shared options")
    group.add_argument("--config", help="key=value settings file; flags win")
    for key, (_, help_text) in _SETTINGS.items():
        if _DEFAULTS[key] is not None:
            help_text += f" (default: {_DEFAULTS[key]})"
        group.add_argument("--" + key.replace("_", "-"), help=help_text)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, parents=[shared])
    return parser


def _parse_config_file(path: str) -> dict:
    """Settings from a key = value file, each converted like its flag."""
    settings: dict = {}
    for lineno, line in enumerate(read_lines(path, "config file"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise TsevalError(f"{path}:{lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _SETTINGS:
            raise TsevalError(f"{path}:{lineno}: unknown setting {key!r}")
        convert, _ = _SETTINGS[key]
        value = raw.strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
            value = value[1:-1]  # one matching pair of quotes, no more
        elif re.search(r"\s#", raw):
            raise TsevalError(
                f"{path}:{lineno}: {key}: comment after the value (put it "
                "on its own line, or quote a value that holds ' #')")
        try:
            settings[key] = convert(value)
        except ValueError as exc:
            raise TsevalError(f"{path}:{lineno}: {key}: {exc}") from None
    return settings


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """The effective settings of one command: flags win over the config
    file, which wins over the defaults."""
    flags = {}
    for key, (convert, _) in _SETTINGS.items():
        text = getattr(args, key)
        if text is not None:
            try:
                flags[key] = convert(text)
            except ValueError as exc:
                raise UsageError(f"--{key.replace('_', '-')}: {exc}") from None
    if args.config == "":
        raise UsageError("--config: empty value")
    config = _parse_config_file(args.config) if args.config else {}
    return argparse.Namespace(command=args.command,
                              **(_DEFAULTS | config | flags))


def _resolve_resource(path: str) -> Path:
    """Resolve a resource path, falling back to $TSEVAL_RESOURCES for
    relative names that do not exist from the working directory."""
    p = Path(path)
    if p.exists() or p.is_absolute():
        return p
    base = os.environ.get(RESOURCE_ENV)
    if base and (Path(base) / p).exists():
        return Path(base) / p
    return p


# Each resource setting, the Resources field it fills and its loader, in
# load order: when several files are bad, the first one here is reported.
_RESOURCES = (
    ("freq_table", "freq_table", load_frequency_table),
    ("concreteness", "concreteness", load_concreteness),
    ("vectors", "vectors", load_vectors),
    ("lm_corpus", "lm", train_lm),
)


def _load_resources(cfg: argparse.Namespace) -> Resources:
    return Resources(**{field: loader(_resolve_resource(getattr(cfg, key)))
                        for key, field, loader in _RESOURCES
                        if getattr(cfg, key)})


def _features_path(out: Path, split: str) -> Path:
    return out / f"features_{split}.tsv"


def _model_path(out: Path, dimension: str, kind: str) -> Path:
    return out / f"model_{dimension}_{kind}.txt"


def _dimensions(cfg: argparse.Namespace) -> list[str]:
    return [cfg.dimension] if cfg.dimension else list(qats_io.DIMENSIONS)


def _splits(cfg: argparse.Namespace):
    """(split, dataset) for each of --train and --test that is given,
    each loaded when the caller reaches it; at least one must be."""
    if cfg.train is None and cfg.test is None:
        raise UsageError(f"{cfg.command} requires --train and/or --test")
    for split, path in (("train", cfg.train), ("test", cfg.test)):
        if path is not None:
            yield split, qats_io.load_dataset(path, split)


def _labeled_split(cfg: argparse.Namespace,
                   split: str) -> tuple[qats_io.Dataset, FeatureMatrix]:
    """The labeled dataset of `split` and the features_<split>.tsv written
    for it, checked to hold the same ids in the same order."""
    path = getattr(cfg, split)
    if path is None:
        raise UsageError(f"the {cfg.command} command requires --{split}")
    dataset = qats_io.load_dataset(path, split)
    if not dataset.is_labeled:
        raise TsevalError(f"{cfg.command} requires a labeled {split} dataset")
    matrix_path = _features_path(Path(cfg.out), split)
    matrix = FeatureMatrix.from_tsv(matrix_path)
    ids = tuple(r.id for r in dataset.records)
    if matrix.row_ids != ids:
        if len(matrix.row_ids) != len(ids):
            detail = f"{len(matrix.row_ids)} rows for {len(ids)} records"
        else:
            i = next(i for i, (a, b) in enumerate(zip(matrix.row_ids, ids))
                     if a != b)
            detail = (f"row {i + 1} has id {matrix.row_ids[i]!r} where the "
                      f"dataset has {ids[i]!r}")
        raise TsevalError(f"{matrix_path} does not match {path}: {detail} "
                          f"(rerun the features command)")
    return dataset, matrix


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _split_warnings(caught, kind) -> tuple[list, dict[str, None]]:
    """The caught warnings of one kind, and the distinct messages of the
    others, in the order they were first issued."""
    mine = [w.message for w in caught if isinstance(w.message, kind)]
    other = dict.fromkeys(str(w.message) for w in caught
                          if not isinstance(w.message, kind))
    return mine, other


def cmd_features(cfg: argparse.Namespace) -> int:
    datasets = list(_splits(cfg))
    resources = _load_resources(cfg)
    out_dir = Path(cfg.out)

    results = []
    timing_total: dict[str, float] = {}
    # Budget warnings of the METEOR search are counted, not shown one by
    # one; any other warning is shown once, as a plain line.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for split, dataset in datasets:
            pairs = qats_io.to_pairs(dataset)
            start = time.perf_counter()
            matrix = compute_matrix(pairs, resources, cfg.features,
                                    timings=timing_total)
            elapsed = time.perf_counter() - start
            results.append((split, matrix))
            print(f"{split}: {len(pairs)} pairs x "
                  f"{len(matrix.feature_names)} features "
                  f"in {elapsed:.2f}s")
    stopped, other = _split_warnings(caught, SearchBudgetWarning)
    if stopped:
        print(f"warning: {len(stopped)} METEOR alignments stopped at the "
              f"node budget; their chunk counts are upper bounds")
    for message in other:
        print(f"warning: {message}")

    out_dir.mkdir(parents=True, exist_ok=True)
    for split, matrix in results:
        path = _features_path(out_dir, split)
        matrix.to_tsv(path)
        print(f"wrote {path}")
    if timing_total:
        print("\ntime per intermediate and feature (s):")
        for name, seconds in sorted(timing_total.items(),
                                    key=lambda kv: -kv[1]):
            print(f"  {name:28s} {seconds:8.3f}")
    return 0


def cmd_rank(cfg: argparse.Namespace) -> int:
    out_dir = Path(cfg.out)
    train_ds, train_matrix = _labeled_split(cfg, "train")
    test_ds = test_matrix = None
    if cfg.test and _features_path(out_dir, "test").exists():
        test_ds, test_matrix = _labeled_split(cfg, "test")

    outputs = []
    for dim in _dimensions(cfg):
        table = rank_features(
            train_matrix, qats_io.encode_labels(train_ds, dim),
            test_matrix=test_matrix,
            test_labels=(qats_io.encode_labels(test_ds, dim)
                         if test_matrix is not None else None),
        )
        outputs.append((dim, table))

    for dim, table in outputs:
        tsv_path = out_dir / f"rank_{dim}.tsv"
        md_path = out_dir / f"rank_{dim}.md"
        tsv_path.write_text(table.to_tsv(), encoding="utf-8")
        md_path.write_text(
            f"## Correlation ranking: dimension {dim}\n\n" + table.to_markdown(),
            encoding="utf-8")
        top = ", ".join(table.top(3))
        print(f"{dim}: wrote {tsv_path} and {md_path} (top: {top})")
    return 0


def cmd_train(cfg: argparse.Namespace) -> int:
    out_dir = Path(cfg.out)
    dimension = cfg.dimension or "Overall"
    train_ds, matrix = _labeled_split(cfg, "train")

    y = qats_io.encode_labels(train_ds, dimension)
    config = PipelineConfig(kind=cfg.model, pca_k=cfg.pca_k)
    grid = LAMBDA_GRID if cfg.lam is None else (cfg.lam,)
    # Cap warnings of the CV and final fits are counted, not shown one by
    # one; any other warning is shown once, as a plain line.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lam, cv_results = select_lambda(matrix, y, config, grid=grid,
                                        folds=cfg.folds, seed=cfg.seed)
        pipeline = fit_pipeline(matrix, y, dimension,
                                replace(config, lam=lam))
    capped, other = _split_warnings(caught, IterationCapWarning)

    print(f"cross-validation ({cfg.folds} folds, seed {cfg.seed}):")
    for grid_lam, result in cv_results.items():
        marker = " <- selected" if grid_lam == lam else ""
        folds_str = " ".join(f"{s:.3f}" for s in result.fold_scores)
        print(f"  lambda={grid_lam:<8g} mean {result.metric} "
              f"{result.mean:.4f}  [{folds_str}]{marker}")

    if capped:
        fits = sum(len(r.fold_scores) for r in cv_results.values()) + 1
        lams = ", ".join(f"{x:g}" for x in sorted({w.lam for w in capped}))
        print(f"warning: {len(capped)} of {fits} {cfg.model} fits stopped "
              f"at the iteration cap (lambda = {lams})")
    for message in other:
        print(f"warning: {message}")
    if cfg.model == "lasso" and not np.any(pipeline.model.weights):
        print("warning: lasso selected no features (all weights zero)")
    path = _model_path(out_dir, dimension, cfg.model)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_pipeline(pipeline, path)
    print(f"wrote {path}")
    return 0


def cmd_evaluate(cfg: argparse.Namespace) -> int:
    out_dir = Path(cfg.out)
    dimension = cfg.dimension or "Overall"
    test_ds, matrix = _labeled_split(cfg, "test")
    pipeline = load_pipeline(_model_path(out_dir, dimension, cfg.model))

    score = score_pipeline(pipeline, matrix,
                           qats_io.encode_labels(test_ds, dimension))
    if pipeline.is_classifier:
        metric, shown = "weighted F1", f"{score * 100.0:.2f}"
        reference = LEADERBOARD_F1[dimension]
    else:
        metric, shown = "Pearson r", f"{score:.4f}"
        reference = LEADERBOARD_PEARSON[dimension]
    lines = [f"{dimension} {cfg.model}: {metric} = {shown}",
             f"QATS 2016 leaderboard reference points ({metric}):"]
    lines += [f"  {value:<8g} {system}" for system, value in reference]

    report = "\n".join(lines) + "\n"
    print(report, end="")
    out_path = out_dir / f"evaluation_{dimension}_{cfg.model}.txt"
    out_path.write_text(report, encoding="utf-8")
    print(f"wrote {out_path}")
    return 0


def cmd_report(cfg: argparse.Namespace) -> int:
    out_dir = Path(cfg.out)
    # a header, then one row per split and dimension with a count per label
    rows = [["split", "dimension", *qats_io.LABELS]]
    for split, dataset in _splits(cfg):
        if not dataset.is_labeled:
            raise TsevalError(f"{split} dataset carries no labels")
        for dim in _dimensions(cfg):
            counts = qats_io.label_distribution(dataset, dim)
            rows.append([split, dim, *(str(counts[x])
                                       for x in qats_io.LABELS)])
    md = [f"| {' | '.join(row)} |\n" for row in rows]
    md.insert(1, "|:--|:--" + "|--:" * len(qats_io.LABELS) + "|\n")

    tsv = "".join("\t".join(row) + "\n" for row in rows)
    print(tsv, end="")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "label_distribution.tsv").write_text(tsv, encoding="utf-8")
    (out_dir / "label_distribution.md").write_text("".join(md),
                                                   encoding="utf-8")
    print(f"wrote {out_dir / 'label_distribution.tsv'}")
    return 0


# Every command: its function and its help line, in `--help` order.
_COMMANDS = {
    "features": (cmd_features,
                 "compute the elementary-metric matrix for each split"),
    "rank": (cmd_rank, "rank features by correlation with human labels"),
    "train": (cmd_train,
              "fit a scale->PCA->linear pipeline on the training split"),
    "evaluate": (cmd_evaluate, "score a trained pipeline on the test split"),
    "report": (cmd_report, "tabulate the label distribution of each split"),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, a code this CLI keeps for data
        # errors
        return 1 if exc.code else 0
    try:
        cfg = _merge_config(args)
        command, _ = _COMMANDS[args.command]
        return command(cfg)
    except UsageError as exc:
        print(f"tseval: error: {exc}", file=sys.stderr)
        return 1
    except TsevalError as exc:
        print(f"tseval: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant failure
        print(f"tseval: internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
