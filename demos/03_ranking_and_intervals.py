"""Correlation-based feature ranking with Fisher confidence intervals.

Builds a synthetic labeled dataset in which simplicity labels really do
depend on output length and meaning labels on source/output overlap, then
shows that the ranking machinery recovers that structure, interval
half-widths included.

    python demos/03_ranking_and_intervals.py
"""

import random

from tseval import (
    SentencePair,
    compute_matrix,
    encode_labels,
    fisher_ci,
    rank_features,
)
from tseval.qats_io import Dataset, QatsRecord

VOCAB = ("the cat sat on the mat big dog ran fast old tree river bridge "
         "man walked slowly children played outside garden green").split()


def synthesize(n: int, seed: int = 13) -> Dataset:
    rng = random.Random(seed)
    records = []
    for i in range(n):
        length = rng.randint(8, 24)
        src = [rng.choice(VOCAB) for _ in range(length)]
        kept = [w for w in src if rng.random() > 0.35] or src[:2]
        overlap = len(kept) / length
        labels = {
            "G": rng.choice(("Good", "Good", "OK", "Bad")),
            "M": "Good" if overlap > 0.7 else ("OK" if overlap > 0.4 else "Bad"),
            "S": "Good" if len(kept) < 9 else ("OK" if len(kept) < 14 else "Bad"),
        }
        labels["Overall"] = labels["M"]
        records.append(QatsRecord(
            id=str(i + 1),
            source_text=" ".join(src).capitalize() + ".",
            output_text=" ".join(kept).capitalize() + ".",
            labels=labels,
        ))
    return Dataset(records=tuple(records), split_tag="train")


def main() -> None:
    dataset = synthesize(250)
    pairs = [SentencePair.from_text(r.source_text, r.output_text, r.id)
             for r in dataset.records]
    resource_free = [
        "NBSourceWords", "NBOutputWords", "NBOutputWordsPerSent",
        "NBOutputChars", "NBOutputCharsPerSent", "NBOutputSyllables",
        "TypeTokenRatio", "BLEU_1gram", "BLEUSmoothed", "METEOR", "ROUGE",
        "TERp", "TERp_Del", "WordsInCommon", "OutputFKGL", "OutputFRE",
    ]
    matrix = compute_matrix(pairs, which=resource_free)

    for dim, story in (("S", "simplicity tracks output length"),
                       ("M", "meaning preservation tracks overlap")):
        table = rank_features(matrix, encode_labels(dataset, dim))
        print(f"=== dimension {dim}: {story} ===")
        for rank, entry in enumerate(table.entries[:5], start=1):
            print(f"  {rank}. {entry.feature_name:22s} "
                  f"r={entry.r_train:+.3f}  "
                  f"95% CI [{entry.ci_low:+.3f}, {entry.ci_high:+.3f}]")
        print()

    print("Interval width shrinks with the sample size (Fisher transform):")
    for n in (30, 120, 505, 2000):
        low, high = fisher_ci(0.36, n)
        print(f"  n={n:>5d}: r=0.36 in [{low:.3f}, {high:.3f}] "
              f"(half-width {(high - low) / 2:.3f})")
    print("\nAt n=505 the half-width is about 0.08, which is why single")
    print("elementary-metric rankings on a dataset this size should be")
    print("read as bands rather than precise orderings.")


if __name__ == "__main__":
    main()
