"""Benchmark of the features -> rank -> train -> evaluate flow.

    python3 bench/run.py --workload qats-reorder --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from ``src/``. One
run generates the workload from the seed, then makes passes over the whole
flow (at least two, more while the next is expected to end within
``--seconds``). A pass is: set-up (datasets and resources through the
public loaders), the features stage (``to_pairs``, ``compute_matrix`` on
slices of the workload's chunk size, ``to_tsv``), then ``rank``,
``train`` and ``evaluate`` through ``tseval.cli.main``. Each step is a
timed unit; host-speed reference samples (``speed.py``) scale its wall
time, and a metric sums over units the median of the unit's scaled
times. Every pass is checked against the benchmark's own computations.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
passes alternate untraced and traced, and the metrics are per layer; the
spans of the last traced pass go to ``bench/traces/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

MIN_PASSES = 2


def _import_program():
    try:
        import tseval
    except ImportError as exc:
        sys.exit(f"bench: cannot import tseval from {ROOT / 'src'}: {exc}")
    if Path(tseval.__file__).resolve().parent != ROOT / "src" / "tseval":
        sys.exit(f"bench: tseval imported from {tseval.__file__}, "
                 f"not from {ROOT / 'src'}")


_import_program()

import numpy as np  # noqa: E402

from tseval import cli, features, qats_io, qemodel, resources  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import generate, write_inputs  # noqa: E402


class Pass:
    """Timings of the units of one pass over the flow."""

    def __init__(self, out: Path):
        self.out = out
        self.bounds: dict[str, tuple[float, float]] = {}
        self.raw: dict[str, float] = {}
        self.units: dict[str, float] = {}   # scaled, filled by scale()
        self.timings: dict[str, float] = {}
        self.ter: dict[int, object] = {}
        self.cli_rc: dict[str, int] = {}

    @contextlib.contextmanager
    def unit(self, name: str):
        start = time.perf_counter()
        yield
        end = time.perf_counter()
        self.bounds[name] = (start, end)
        self.raw[name] = end - start

    def scale(self, clock) -> None:
        """Unit times at the reference speed (see speed.py)."""
        self.units = {name: clock.scaled(*b)
                      for name, b in self.bounds.items()}


def _ter_tap(store: dict):
    """Keep each pair's EditBreakdown for the checks, keyed by the id of
    its source text object."""
    def make(fn):
        def tapped(source, output):
            result = fn(source, output)
            store[id(source)] = result
            return result
        return tapped
    return make


def run_pass(paths: dict, spec, out: Path, tracer) -> Pass:
    p = Pass(out)
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    with span("pass"):
        with span("setup"):
            with p.unit("setup.train"):
                train_ds = qats_io.load_dataset(paths["train"], "train")
            with p.unit("setup.test"):
                test_ds = qats_io.load_dataset(paths["test"], "test")
            with p.unit("setup.freq"):
                freq = resources.load_frequency_table(paths["freq"])
            with p.unit("setup.concreteness"):
                conc = resources.load_concreteness(paths["concreteness"])
            with p.unit("setup.vectors"):
                vec = resources.load_vectors(paths["vectors"])
            with p.unit("setup.lm"):
                lm = resources.train_lm(paths["lm_corpus"])
            res = resources.Resources(freq_table=freq, concreteness=conc,
                                      vectors=vec, lm=lm)
        undo = spans.install("tseval.features", "ter_align", _ter_tap(p.ter))
        ids = {}
        with span("features"):
            for split, ds in (("train", train_ds), ("test", test_ds)):
                with p.unit(f"features.{split}.to_pairs"):
                    pairs = qats_io.to_pairs(ds)
                ids.update((id(x.source), x.id) for x in pairs)
                blocks = []
                for i in range(0, len(pairs), spec.chunk):
                    with p.unit(f"features.{split}.{i // spec.chunk}"):
                        blocks.append(features.compute_matrix(
                            pairs[i:i + spec.chunk], res,
                            timings=p.timings))
                matrix = features.FeatureMatrix(
                    feature_names=blocks[0].feature_names,
                    rows=np.vstack([b.rows for b in blocks]),
                    row_ids=tuple(x.id for x in pairs))
                out.mkdir(parents=True, exist_ok=True)
                with p.unit(f"features.{split}.to_tsv"):
                    matrix.to_tsv(out / f"features_{split}.tsv")
        spans.restore(undo)
        p.ter = {ids[k]: v for k, v in p.ter.items() if k in ids}
        # The CLI commands load what they need themselves, as a user's
        # separate invocations would; the set-up's objects are not kept.
        del train_ds, test_ds, res, freq, conc, vec, lm, pairs, blocks
        common = ["--train", str(paths["train"]), "--test",
                  str(paths["test"]), "--out", str(out)]
        model = ["--dimension", spec.dimension, "--model", spec.model]
        for command, extra in (("rank", []),
                               ("train", model + ["--folds", str(spec.folds)]),
                               ("evaluate", model)):
            with span(f"cli.{command}"), p.unit(f"cli.{command}"), \
                    contextlib.redirect_stdout(io.StringIO()) as log:
                p.cli_rc[command] = cli.main([command] + common + extra)
            (out / f"cli_{command}.log").write_text(log.getvalue())
    return p


def check_pass(p: Pass, work, truth: dict) -> dict[str, bool]:
    """Every check of one pass, by name; True when it holds."""
    results: dict[str, bool] = {}
    pairs = {x.id: x for x in work.train + work.test}
    for pid, x in pairs.items():
        e = p.ter.get(pid)
        lb, lev = truth["bounds"][pid]
        results[f"ter.{pid}"] = e is not None and (
            e.num_errors == e.insertions + e.deletions + e.substitutions
            + e.shifts
            and lb <= e.num_errors <= lev
            and e.matches + e.substitutions + e.deletions == len(x.src)
            and e.matches + e.substitutions + e.insertions == len(x.out))

    split_rows = {}
    for split in ("train", "test"):
        names, ids, X = checks.read_matrix(p.out / f"features_{split}.tsv")
        split_rows[split] = (names, ids, X)
        results[f"finite.{split}"] = bool(np.all(np.isfinite(X)))
    for pid in truth["sample"]:
        x = pairs[pid]
        split = "train" if pid in truth["train_ids"] else "test"
        names, ids, X = split_rows[split]
        row = X[ids.index(pid)]
        value = dict(zip(names, row))
        results[f"sample.{pid}"] = (
            checks.close(value["ROUGE"], checks.rouge_l(x.src, x.out))
            and checks.close(value["BLEU_1gram"],
                             checks.bleu_1gram(x.src, x.out))
            and value["NBOutputWords"] == len(x.out)
            and value["NBSourceWords"] == len(x.src))

    names, ids, X = split_rows["train"]
    tops = {}
    for dim in ("G", "M", "S", "Overall"):
        gold = np.array([checks.LABEL_VALUE[pairs[i].labels[dim]]
                         for i in ids], dtype=float)
        ok, tops[dim] = checks.check_ranking(p.out / f"rank_{dim}.tsv",
                                             X, names, gold)
        results[f"rank.{dim}"] = ok
    results["signal.S"] = tops["S"] in checks.LENGTH_FEATURES
    results["signal.M"] = tops["M"] in checks.OVERLAP_FEATURES

    spec = work.spec
    model_path = p.out / f"model_{spec.dimension}_{spec.model}.txt"
    report = p.out / f"evaluation_{spec.dimension}_{spec.model}.txt"
    try:
        model = checks.read_model(model_path)
        test_names, test_ids, X_test = split_rows["test"]
        gold = [checks.LABEL_VALUE[pairs[i].labels[spec.dimension]]
                for i in test_ids]
        expected = checks.evaluate_score(model, test_names, X_test, gold)
        printed = float(report.read_text().split("=")[1].split()[0])
        digits = 2 if spec.model == "logistic" else 4
        results["evaluate"] = abs(printed - expected) <= 0.6 * 10 ** -digits
        if spec.model == "logistic":
            # Reported, not checked: the norm depends on the seed.
            train_gold = [checks.LABEL_VALUE[pairs[i].labels[spec.dimension]]
                          for i in ids]
            truth["gradient_norm"] = checks.logistic_gradient_norm(
                model, names, X, train_gold)
    except (OSError, ValueError, IndexError, StopIteration):
        results["evaluate"] = False
    if spec.model == "logistic":
        X_probe, gold_probe, lam = checks.logistic_probe()
        fit = qemodel.fit_classifier(X_probe, gold_probe, lam=lam)
        truth["probe_gradient_norm"] = norm = checks.gradient_norm(
            X_probe, fit.weights, fit.intercept, lam, gold_probe)
        results["logistic_stationary"] = norm <= checks.LOGISTIC_TOL
    for command, rc in p.cli_rc.items():
        results[f"cli.{command}"] = rc == 0
    return results


def ground_truth(work, seed: int) -> dict:
    """Input-only expectations, computed once per run."""
    everything = work.train + work.test
    sample = random.Random(f"sample:{seed}").sample(
        [x.id for x in everything], 60)
    return {
        "bounds": {x.id: (checks.multiset_lower_bound(x.src, x.out),
                          checks.levenshtein(x.src, x.out))
                   for x in everything},
        "sample": sample,
        "train_ids": {x.id for x in work.train},
    }


def median_sum(passes: list[Pass], prefix: str = "",
               key: str = "units") -> float:
    """Sum over units of the median of their passes' times."""
    return sum(statistics.median(getattr(p, key)[u] for p in passes)
               for u in getattr(passes[0], key) if u.startswith(prefix))


def end_to_end(passes: list[Pass], n_pairs: int) -> dict:
    return {
        "setup_s": median_sum(passes, "setup."),
        "features_pairs_per_s": n_pairs / median_sum(passes, "features."),
        "total_s": median_sum(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


STAGES = ("setup.", "features.", "cli.rank", "cli.train", "cli.evaluate")
END_TO_END_UNITS = {"setup_s": "s", "features_pairs_per_s": "1/s",
                    "total_s": "s", "peak_rss_mb": "MB"}


def per_layer(summaries: list[dict], untraced: list[Pass],
              traced: list[Pass], factor: float) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced passes) and the slowest
    pairs of the per-pair layers. Times are scaled to the reference speed
    by the run's median reference sample (``factor``)."""
    metrics: dict[str, tuple[float, str]] = {}

    def med(values):
        return statistics.median(values)

    for _, _, name in spans.LAYERS:
        metrics[f"{name}.self_s"] = (
            factor * med(s["self_s"].get(name, 0.0) for s in summaries), "s")
    for name in ("mtmetrics.bleu", "textproc.tokenize",
                 "textproc.porter_stem", "qemodel.fit_classifier",
                 "resources.token_logprobs"):
        metrics[f"{name}.calls"] = (
            med(s["calls"].get(name, 0) for s in summaries), "count")
    for name in spans.PER_PAIR:
        for pct in (50, 98):
            label = "median_ms" if pct == 50 else f"p{pct}_ms"
            metrics[f"{name}.{label}"] = (factor * med(
                spans.percentile_ms(s["durations"][name], pct)
                for s in summaries), "ms")
    metrics["mtmetrics.ter_align.shifts"] = (
        med(s["shifts"] for s in summaries), "count")
    for command in ("rank", "train", "evaluate"):
        metrics[f"cli.{command}.s"] = (
            factor * med(p.raw[f"cli.{command}"] for p in traced), "s")
    for feature in untraced[0].timings:
        metrics[f"features.time.{feature}_s"] = (
            factor * med(p.timings[feature] for p in untraced), "s")
    metrics["trace.unaccounted_share"] = (
        med(s["unaccounted_share"] for s in summaries), "share")
    metrics["trace.overhead_s"] = (
        factor * median_sum(traced, key="raw") - median_sum(untraced), "s")

    slowest = {}
    for name in spans.PER_PAIR:
        best: dict[str, float] = {}
        for s in summaries:
            for pid, secs in s["per_pair"].get(name, {}).items():
                best[pid] = min(best.get(pid, float("inf")), factor * secs)
        slowest[name] = [[pid, round(1000 * secs, 3)] for pid, secs in
                         sorted(best.items(), key=lambda kv: -kv[1])[:10]]
    return metrics, slowest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = generate(args.workload, args.seed)
    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        paths = write_inputs(work, workdir / "inputs")
        truth = ground_truth(work, args.seed)
        n_pairs = len(work.train) + len(work.test)
        untraced: list[Pass] = []
        traced: list[Pass] = []
        summaries: list[dict] = []
        tracer = spans.Tracer() if args.trace else None
        clock = speed.Clock()
        attempted = failed = 0
        all_ok = True
        failures: dict[str, int] = {}
        start = time.perf_counter()
        while True:
            index = len(untraced) + len(traced)
            traced_pass = bool(args.trace) and index % 2 == 1
            out = workdir / f"pass{index}"
            gc.collect()
            if traced_pass:
                tracer.spans.clear()  # the file keeps the last traced pass
                tracer.start()
                try:
                    p = run_pass(paths, work.spec, out, tracer)
                finally:
                    tracer.stop()
                summary = tracer.summary()
                summary["shifts"], tracer.shifts = tracer.shifts, 0
                structure = ("pass", "setup", "features")
                summary["unaccounted_share"] = sum(
                    summary["self_s"].get(n, 0.0) for n in structure) / (
                        tracer.spans[0][2] - tracer.spans[0][1])
                summaries.append(summary)
                traced.append(p)
            else:
                clock.start()
                try:
                    p = run_pass(paths, work.spec, out, None)
                finally:
                    clock.stop()
                p.scale(clock)
                untraced.append(p)
            results = check_pass(p, work, truth)
            shutil.rmtree(out, ignore_errors=True)
            p.ter = {}
            attempted += n_pairs + len(results)
            for name, ok in results.items():
                if not ok:
                    failed += 1
                    failures[name] = failures.get(name, 0) + 1
                    all_ok = all_ok and name == "logistic_stationary"
            elapsed = time.perf_counter() - start
            done = len(untraced) + len(traced)
            needed = MIN_PASSES
            if done >= needed and (done % 2 == 0 or not args.trace) and \
                    elapsed * (done + 1) / done > args.seconds:
                break

        if args.trace:
            metrics, slowest = per_layer(summaries, untraced, traced,
                                         clock.factor())
            (BENCH / "traces").mkdir(exist_ok=True)
            trace_file = BENCH / "traces" / f"{args.workload}-{args.seed}.json"
            names = sorted({s[0] for s in tracer.spans})
            code = {n: i for i, n in enumerate(names)}
            trace_file.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "facts": work.facts, "slowest_pairs_ms": slowest,
                "metrics": {k: v[0] for k, v in metrics.items()},
                "span_names": names,
                "spans": [[code[n], round(s, 7), round(e, 7), parent, tag]
                          for n, s, e, parent, tag in tracer.spans],
            }))
            print(json.dumps({"slowest_pairs_ms": slowest}))
        else:
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in
                       end_to_end(untraced, n_pairs).items()}
        print(json.dumps({"facts": work.facts, "passes":
                          len(untraced) + len(traced), "failures": failures,
                          "wall_total_s": median_sum(untraced, key="raw"),
                          "stages_s": {stage: median_sum(untraced, stage)
                                       for stage in STAGES},
                          "ref_median_s": statistics.median(clock.refs),
                          "gradient_norm": truth.get("gradient_norm"),
                          "probe_gradient_norm":
                              truth.get("probe_gradient_norm")}))
        print(json.dumps({
            "correct": all_ok, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
