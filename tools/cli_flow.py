"""Run the CLI flow of the benchmark workloads and keep its artifacts.

    python tools/cli_flow.py SRC OUT

For each workload of bench/workloads.py and seeds 1-3, write the
workload's inputs to a temporary directory, then run the `tseval` of
SRC/src (SRC is a checkout of this repository) on them:

* `features` with all four resources,
* `rank`,
* `train` and `evaluate` with the workload's dimension and model.

The artifacts go to OUT/<workload>-<seed>/ (13 files per run), so two
checkouts can be compared with `diff -r OUT1 OUT2`. One of them is
`train.log`, the stdout of `train` (the cross-validation table, its
warnings and the model path) with OUT replaced by the token `<OUT>`.
The other command logs stay out of OUT, because their timing lines
differ between runs; a failing command's log is printed. The inputs come
from this script's own bench/ directory, so both checkouts read the same
files. Exits 1 if any command exits non-zero.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave bench/ as it is
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import SPECS, generate, write_inputs  # noqa: E402

SEEDS = (1, 2, 3)


def run_flow(src: Path, out: Path) -> bool:
    """Run the flow of every workload and seed; False if a command failed."""
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in SPECS.items():
            for seed in SEEDS:
                paths = write_inputs(generate(name, seed),
                                     Path(tmp) / f"{name}-{seed}")
                common = ["--train", str(paths["train"]),
                          "--test", str(paths["test"]),
                          "--out", str(out / f"{name}-{seed}")]
                model = ["--dimension", spec.dimension, "--model", spec.model]
                for command, extra in (
                    ("features", ["--freq-table", str(paths["freq"]),
                                  "--concreteness", str(paths["concreteness"]),
                                  "--vectors", str(paths["vectors"]),
                                  "--lm-corpus", str(paths["lm_corpus"])]),
                    ("rank", []),
                    ("train", model + ["--folds", str(spec.folds)]),
                    ("evaluate", model),
                ):
                    done = subprocess.run(
                        [sys.executable, "-m", "tseval.cli", command,
                         *common, *extra],
                        env=env, capture_output=True, text=True)
                    status = "ok" if done.returncode == 0 else \
                        f"exit {done.returncode}"
                    print(f"{name} seed {seed} {command}: {status}",
                          flush=True)
                    if done.returncode:
                        print(done.stdout + done.stderr, file=sys.stderr)
                        ok = False
                        break
                    if command == "train":
                        (out / f"{name}-{seed}" / "train.log").write_text(
                            done.stdout.replace(str(out), "<OUT>"),
                            encoding="utf-8")
    return ok


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (src / "src" / "tseval").is_dir():
        print(f"cli_flow: {src} has no src/tseval", file=sys.stderr)
        return 1
    return 0 if run_flow(src, out) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
