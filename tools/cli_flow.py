"""Run the CLI flow of the benchmark workloads and keep its artifacts.

    python tools/cli_flow.py SRC OUT

Writes the inputs of every run of `_runs` to a temporary directory, then
runs the `tseval` of SRC/src (SRC is a checkout of this repository) on
them, with the artifacts of each run in OUT/<run>/, so two checkouts can
be compared with `diff -r OUT1 OUT2`. One of them is `train.log`, the
stdout of `train` (the cross-validation table, its warnings and the
model path) with OUT replaced by the token `<OUT>`. The other command
logs stay out of OUT, because their timing lines differ between runs; a
failing command's log is printed. The inputs come from this script's own
bench/ directory, so both checkouts read the same files.

Prints the number of files in OUT, so two runs can also be compared by
their counts. Exits 1 if any command exits non-zero.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)
SHORT = "short-reorder"
SHORT_INSERT = "short-insert"
SHORT_WORDS = ("the", "a", "cat", "dog", "sat", "ran", "on", "mat")


def write_short_set(directory: Path, insert: bool = False
                    ) -> dict[str, Path]:
    """Write train.tsv (40 rows) and test.tsv (12 rows) of short pairs and
    return their paths by split. Each source has 2-8 words drawn from
    SHORT_WORDS, so words repeat; its output is its first 7 words or
    fewer, shuffled, with one of them sometimes substituted. With
    `insert`, the output is its first 6 words or fewer, shuffled, with 1-2
    words inserted at random places instead, each a source word or the
    word "big", which is not in SHORT_WORDS. Labels are drawn at random."""
    from workloads import LABELS

    rng = random.Random(SHORT_INSERT if insert else SHORT)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for split, count in (("train", 40), ("test", 12)):
        lines = ["id\toriginal\tsimplified\tG\tM\tS\tOverall"]
        for i in range(count):
            src = [rng.choice(SHORT_WORDS) for _ in range(rng.randint(2, 8))]
            out = src[:6 if insert else 7]
            rng.shuffle(out)
            if insert:
                for _ in range(rng.randint(1, 2)):
                    word = rng.choice(src) if rng.random() < 0.5 else "big"
                    out.insert(rng.randint(0, len(out)), word)
            elif rng.random() < 0.3:
                out[rng.randrange(len(out))] = rng.choice(SHORT_WORDS)
            lines.append("\t".join(
                [f"{split}-{i}", " ".join(src).capitalize() + ".",
                 " ".join(out).capitalize() + "."]
                + [rng.choice(LABELS) for _ in range(4)]))
        paths[split] = directory / f"{split}.tsv"
        paths[split].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths


def _runs(tmp: Path):
    """(name, input paths, [(command, extra arguments)]) of every run."""
    from workloads import SPECS, generate, write_inputs

    # every workload and seed through all five commands; `report`'s label
    # counts show what `load_dataset` read
    for name, spec in SPECS.items():
        for seed in SEEDS:
            paths = write_inputs(generate(name, seed), tmp / f"{name}-{seed}")
            model = ["--dimension", spec.dimension, "--model", spec.model]
            yield f"{name}-{seed}", paths, [
                ("features", ["--freq-table", str(paths["freq"]),
                              "--concreteness", str(paths["concreteness"]),
                              "--vectors", str(paths["vectors"]),
                              "--lm-corpus", str(paths["lm_corpus"])]),
                ("rank", []),
                ("train", model + ["--folds", str(spec.folds)]),
                ("evaluate", model),
                ("report", []),
            ]
    # the default feature set of a partial set of resources
    partial = "qats-lexical-1-partial"
    paths = write_inputs(generate("qats-lexical", 1), tmp / partial)
    yield partial, paths, [
        ("features", ["--freq-table", str(paths["freq"]),
                      "--lm-corpus", str(paths["lm_corpus"])]),
        ("rank", []),
    ]
    # The workloads' outputs are too long for TER's exhaustive shift
    # search, and never insert a word, so their edit distance never
    # exceeds the multiset bound for that reason; these short outputs
    # reach the search, the second set also through insertions.
    short = [("features", []), ("rank", [])]
    yield SHORT, write_short_set(tmp / SHORT), short
    yield SHORT_INSERT, write_short_set(tmp / SHORT_INSERT, True), short


def run_flow(src: Path, out: Path) -> int | None:
    """Run the flow of every run; the number of files in `out`, or None
    if a command failed."""
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for name, paths, commands in _runs(Path(tmp)):
            common = ["--train", str(paths["train"]),
                      "--test", str(paths["test"]),
                      "--out", str(out / name)]
            for command, extra in commands:
                done = subprocess.run(
                    [sys.executable, "-m", "tseval.cli", command,
                     *common, *extra],
                    env=env, capture_output=True, text=True)
                status = "ok" if done.returncode == 0 else \
                    f"exit {done.returncode}"
                print(f"{name} {command}: {status}", flush=True)
                if done.returncode:
                    print(done.stdout + done.stderr, file=sys.stderr)
                    ok = False
                    break
                if command == "train":
                    (out / name / "train.log").write_text(
                        done.stdout.replace(str(out), "<OUT>"),
                        encoding="utf-8")
    return sum(path.is_file() for path in out.rglob("*")) if ok else None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (src / "src" / "tseval").is_dir():
        print(f"cli_flow: {src} has no src/tseval", file=sys.stderr)
        return 1
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    files = run_flow(src, out)
    if files is None:
        return 1
    print(f"{files} files in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
