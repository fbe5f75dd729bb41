#!/usr/bin/env bash
# The full command-line workflow on a generated toy dataset:
# features -> rank -> train -> evaluate -> report.
#
#   bash demos/05_cli_workflow.sh [workdir]
#
# From a checkout without an installed package, put src/ on the path:
#
#   PYTHONPATH=$PWD/src bash demos/05_cli_workflow.sh [workdir]
set -euo pipefail

# The module entry point works with or without an installed console script.
tseval() { python3 -m tseval.cli "$@"; }

WORKDIR="${1:-$(mktemp -d)}"
mkdir -p "$WORKDIR"
echo "working in $WORKDIR"
cd "$WORKDIR"

python3 - <<'PY'
import random

rng = random.Random(5)
vocab = ("the cat sat on the mat big dog ran fast old tree river bridge "
         "man walked slowly children played outside garden green").split()
rows = []
for _ in range(80):
    n = rng.randint(8, 22)
    src = [rng.choice(vocab) for _ in range(n)]
    kept = [w for w in src if rng.random() > 0.3] or src[:2]
    overlap = len(kept) / n
    g = rng.choice(("Good", "Good", "OK", "Bad"))
    m = "Good" if overlap > 0.7 else ("OK" if overlap > 0.4 else "Bad")
    s = "Good" if len(kept) < 9 else ("OK" if len(kept) < 14 else "Bad")
    rows.append((" ".join(src).capitalize() + ".",
                 " ".join(kept).capitalize() + ".", g, m, s, m))

header = "original\tsimplified\tG\tM\tS\tOverall"
with open("train.tsv", "w") as f:
    f.write(header + "\n")
    f.writelines("\t".join(r) + "\n" for r in rows[:60])
with open("test.tsv", "w") as f:
    f.write(header + "\n")
    f.writelines("\t".join(r) + "\n" for r in rows[60:])
with open("lm_corpus.txt", "w") as f:
    f.writelines(r[0].lower().rstrip(".") + "\n" for r in rows)
with open("freq.txt", "w") as f:
    f.writelines(w + "\n" for w in vocab)
print("toy dataset written: 60 train / 20 test pairs")
PY

echo; echo "== 1. elementary-metric matrices =="
tseval features --train train.tsv --test test.tsv \
    --lm-corpus lm_corpus.txt --freq-table freq.txt --out run

echo; echo "== 2. correlation rankings (all four dimensions) =="
tseval rank --train train.tsv --test test.tsv --out run

echo; echo "== 3. ridge pipeline for meaning preservation =="
tseval train --train train.tsv --dimension M --model ridge \
    --pca-k 15 --out run

echo; echo "== 4. held-out evaluation =="
tseval evaluate --test test.tsv --dimension M --model ridge --out run

echo; echo "== 5. label distribution report =="
tseval report --train train.tsv --test test.tsv --out run

echo; echo "artifacts:"
ls run
