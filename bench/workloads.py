"""Deterministic QATS-shaped workloads for the benchmark.

Every input is drawn from ``random.Random(f"{workload}:{seed}")``, so one
seed always gives the same files. The program only ever sees the files
written by ``write_inputs``; the word lists kept on ``Pair`` are the
generator's own record, used by the checks in ``checks.py``.

Three workloads:

* ``qats-reorder``: 631 pairs (505 train, 126 test) with 15-45-word Zipfian
  sources in which function words repeat. A fixed share of pairs carries
  one block move, and an adversarial tail of long pairs carries two block
  moves each, so TER's shift search does most of the work. Small
  resources.
* ``qats-lexical``: the same pair shape, but outputs only delete words,
  split sentences and substitute words that do not occur in the source,
  so every pair's edit distance equals its multiset lower bound and the
  shift search returns at once. Some pairs are function-word heavy, so
  METEOR's chunk search does real work. Resources of realistic size.
* ``score-many``: several thousand short pairs (6-20 words), the same
  edit mix as ``qats-lexical``, small resources.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

from checks import levenshtein, multiset_lower_bound

FUNCTION_WORDS = ("the", "a", "of", "and", "an", "or", "was", "were", "on",
                  "in", "to", "which", "is", "that", "with", "for", "as",
                  "by", "at", "it")
# Function words that dominate the function-word-heavy METEOR slice.
HEAVY_WORDS = ("the", "a", "of", "and", "an", "or")
LABELS = ("Bad", "OK", "Good")


@dataclass(frozen=True)
class Spec:
    """Make-up of one workload."""

    train: int
    test: int
    src_len: tuple[int, int]
    resources: str               # "small" or "large"
    moves: int = 0               # body pairs with one block move
    tail: int = 0                # long pairs with two block moves
    heavy: int = 0               # function-word-heavy pairs (METEOR)
    model: str = "ridge"
    dimension: str = "M"
    folds: int = 5
    chunk: int = 16              # pairs per timed compute_matrix call


# qats-lexical trains on Overall: on those labels the number of
# fit_classifier fits that stop before the iteration cap, and so the cost
# of train, varies least from seed to seed (see bench/README.md).
SPECS = {
    "qats-reorder": Spec(train=505, test=126, src_len=(15, 45),
                         resources="small", moves=40, tail=2),
    "qats-lexical": Spec(train=505, test=126, src_len=(15, 45),
                         resources="large", heavy=150, model="logistic",
                         dimension="Overall", folds=2),
    "score-many": Spec(train=2400, test=600, src_len=(6, 20),
                       resources="small", dimension="S", chunk=64),
}

# Resource sizes: vector rows and dimensions, frequency-table and
# concreteness rows, LM corpus sentences (of 4-10 words each).
RESOURCE_SIZES = {
    "small": dict(vectors=2_000, dim=20, lexicon=2_000, corpus=1_000),
    "large": dict(vectors=20_000, dim=30, lexicon=20_000, corpus=20_000),
}

# Body block moves: 20-word Zipfian sources, 10 % deletions, then one
# 3-word block moved 4 positions. Tail: 44 distinct words in two halves,
# the 3-word block at TAIL_AT moved 5 positions inside each half; with
# distinct words and fixed positions the shift search does the same work
# on every seed. The fixed shapes keep the shift search's cost nearly the
# same from seed to seed and cap it so that every pair finishes; see the
# FOUND line in CHANGES.md for uncapped moves. Function-word-heavy pairs:
# 26-32 words, 40 % drawn from six function words.
MOVE_LEN = (20, 20)
TAIL_LEN = 44
TAIL_AT = (4, 8)
# Repeats of one function word in a Zipfian source. More repeats make
# METEOR's chunk search and TER's tied moves heavy-tailed from seed to
# seed; the function-word-heavy slice stresses METEOR on its own.
MAX_REPEAT = 3


@dataclass
class Pair:
    id: str
    src: list[str]                       # lowercase source words
    out_sents: list[list[str]]           # lowercase output words by sentence
    kind: str                            # "plain", "move", "tail", "heavy"
    labels: dict[str, str] = field(default_factory=dict)

    @property
    def out(self) -> list[str]:
        return [w for sent in self.out_sents for w in sent]


@dataclass
class Workload:
    name: str
    seed: int
    spec: Spec
    train: list[Pair]
    test: list[Pair]
    vocab: list[str]
    facts: dict


def _text(sentences: list[list[str]]) -> str:
    return " ".join(" ".join(s).capitalize() + "." for s in sentences)


def _zipf_cum_weights(n: int) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank + 1) for rank in range(n)))


def _pseudo_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    """Distinct pronounceable-enough words that end in a consonant other
    than s or y, so that word + "s" has the same Porter stem."""
    out: list[str] = []
    while len(out) < count:
        w = ("".join(rng.choice("abcdefghijklmnoprstuvw")
                     for _ in range(rng.randint(2, 8)))
             + rng.choice("bcdfgklmnprt"))
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


class _Generator:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.spec = SPECS[name]
        self.rng = random.Random(f"{name}:{seed}")
        taken = set(FUNCTION_WORDS)
        self.content = _pseudo_words(self.rng, 4_000, taken)
        self.fresh = _pseudo_words(self.rng, 20_000, taken)
        self.vocab = list(FUNCTION_WORDS) + self.content
        self.cum_weights = _zipf_cum_weights(len(self.vocab))
        self.fresh_next = 0

    def zipf(self, n: int) -> list[str]:
        """Zipfian words; a function word repeats at most MAX_REPEAT
        times, beyond which it is drawn again."""
        words: list[str] = []
        seen: dict[str, int] = {}
        while len(words) < n:
            w = self.rng.choices(self.vocab, cum_weights=self.cum_weights)[0]
            if w in FUNCTION_WORDS:
                if seen.get(w, 0) >= MAX_REPEAT:
                    continue
                seen[w] = seen.get(w, 0) + 1
            words.append(w)
        return words

    def novel_word(self, src: list[str]) -> str:
        """A word absent from the source: half the time an inflection of a
        source content word (a METEOR stem match), else a fresh word."""
        content = [w for w in src if w not in FUNCTION_WORDS]
        if content and self.rng.random() < 0.5:
            w = self.rng.choice(content) + "s"
            if w not in src:
                return w
        w = self.fresh[self.fresh_next % len(self.fresh)]
        self.fresh_next += 1
        return w

    def edit(self, src: list[str], p_del: float, p_sub: float) -> list[str]:
        out = []
        for w in src:
            r = self.rng.random()
            if r < p_del:
                continue
            if r < p_del + p_sub:
                out.append(self.novel_word(src))
            else:
                out.append(w)
        return out or src[:3]

    def split(self, words: list[str]) -> list[list[str]]:
        if len(words) >= 8 and self.rng.random() < 0.3:
            cut = self.rng.randint(3, len(words) - 3)
            return [words[:cut], words[cut:]]
        return [words]

    def block_move(self, words: list[str], size: int, dist: int,
                   at: int | None = None) -> list[str]:
        i = self.rng.randrange(0, len(words) - size - dist + 1) \
            if at is None else at
        block, rest = words[i:i + size], words[:i] + words[i + size:]
        j = i + dist
        return rest[:j] + block + rest[j:]

    def pair(self, kind: str) -> tuple[list[str], list[list[str]]]:
        rng = self.rng
        if kind == "tail":
            src = rng.sample(self.content, TAIL_LEN)
            half = TAIL_LEN // 2
            out = (self.block_move(src[:half], 3, 5, TAIL_AT[0])
                   + self.block_move(src[half:], 3, 5, TAIL_AT[1]))
            return src, [out]
        if kind == "move":
            src = self.zipf(rng.randint(*MOVE_LEN))
            out = self.edit(src, 0.1, 0.0)
            while len(out) < 10:
                out = self.edit(src, 0.1, 0.0)
            out = self.block_move(out, 3, 4)
            return src, [out]
        if kind == "heavy":
            n = rng.randint(26, 32)
            src = [rng.choice(HEAVY_WORDS) if rng.random() < 0.4
                   else rng.choice(self.content[:300]) for _ in range(n)]
            return src, self.split(self.edit(src, 0.15, 0.1))
        src = self.zipf(rng.randint(*self.spec.src_len))
        p_del = rng.uniform(0.0, 0.5)
        p_sub = rng.uniform(0.0, 0.3)
        return src, self.split(self.edit(src, p_del, p_sub))

    def labels(self, p: Pair, out_len_cut: tuple[int, int]) -> dict[str, str]:
        """Planted signal: S from output length, M from the share of source
        word types kept, G partly random; Overall their rounded mean."""
        rng = self.rng
        out = p.out
        src_types = set(p.src)
        kept = len(src_types & set(out)) / len(src_types)
        m = 2 if kept > 0.8 else (1 if kept > 0.6 else 0)
        s = 2 if len(out) <= out_len_cut[0] else (
            1 if len(out) <= out_len_cut[1] else 0)
        g = m if rng.random() < 0.5 else rng.randrange(3)
        if p.kind in ("move", "tail") and g > 0 and rng.random() < 0.5:
            g -= 1
        overall = round((g + m + s) / 3)
        return {"G": LABELS[g], "M": LABELS[m], "S": LABELS[s],
                "Overall": LABELS[overall]}

    def build(self) -> Workload:
        spec = self.spec
        n = spec.train + spec.test
        kinds = (["tail"] * spec.tail + ["move"] * spec.moves
                 + ["heavy"] * spec.heavy)
        kinds += ["plain"] * (n - len(kinds))
        self.rng.shuffle(kinds)
        pairs = []
        for i, kind in enumerate(kinds):
            src, out_sents = self.pair(kind)
            pairs.append(Pair(id=f"p{i + 1}", src=src, out_sents=out_sents,
                              kind=kind))
        lengths = sorted(len(p.out) for p in pairs)
        cut = (lengths[n // 3], lengths[2 * n // 3])
        for p in pairs:
            p.labels = self.labels(p, cut)
        facts = self.facts(pairs)
        return Workload(name=self.name, seed=self.seed, spec=spec,
                        train=pairs[:spec.train], test=pairs[spec.train:],
                        vocab=self.vocab, facts=facts)

    def facts(self, pairs: list[Pair]) -> dict:
        """Assert and record the workload's defining properties."""
        moved = sum(p.kind in ("move", "tail") for p in pairs)
        tail = sum(p.kind == "tail" for p in pairs)
        for p in pairs:
            if p.kind in ("move", "tail"):
                continue
            if levenshtein(p.src, p.out) != multiset_lower_bound(p.src, p.out):
                raise AssertionError(
                    f"{self.name}: pair {p.id} edit distance exceeds its "
                    "multiset lower bound")
        return {"pairs": len(pairs), "block_move_share": moved / len(pairs),
                "tail_pairs": tail,
                "function_word_heavy": sum(p.kind == "heavy" for p in pairs),
                "split_share": sum(len(p.out_sents) > 1 for p in pairs)
                / len(pairs)}


def generate(name: str, seed: int) -> Workload:
    if name not in SPECS:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(SPECS)}")
    return _Generator(name, seed).build()


def write_inputs(work: Workload, directory: Path) -> dict[str, Path]:
    """Write the datasets and resources; return their paths by role."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{work.name}:{work.seed}:resources")
    paths = {}
    for split, pairs in (("train", work.train), ("test", work.test)):
        path = directory / f"{split}.tsv"
        lines = ["id\toriginal\tsimplified\tG\tM\tS\tOverall"]
        for p in pairs:
            lines.append("\t".join([p.id, _text([p.src]), _text(p.out_sents)]
                                   + [p.labels[d] for d in
                                      ("G", "M", "S", "Overall")]))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths[split] = path

    size = RESOURCE_SIZES[work.spec.resources]
    # Resource vocabularies: the workload's own words first (most frequent
    # first), padded with filler words to the target size.
    filler = _pseudo_words(rng, max(size["vectors"], size["lexicon"]),
                           set(work.vocab))
    words = work.vocab + filler
    lexicon = words[:size["lexicon"]]

    paths["freq"] = directory / "freq.txt"
    paths["freq"].write_text(
        "".join(f"{w}\t{1_000_000 // (i + 1)}\n"
                for i, w in enumerate(lexicon)), encoding="utf-8")

    paths["concreteness"] = directory / "concreteness.tsv"
    paths["concreteness"].write_text(
        "Word\tConc.M\n" + "".join(f"{w}\t{rng.uniform(1, 5):.2f}\n"
                                   for w in lexicon),
        encoding="utf-8")

    dim = size["dim"]
    vec_words = words[:size["vectors"]]
    rng.shuffle(vec_words)
    paths["vectors"] = directory / "vectors.txt"
    with paths["vectors"].open("w", encoding="utf-8") as f:
        f.write(f"{len(vec_words)} {dim}\n")
        for w in vec_words:
            f.write(w + " " + " ".join(f"{rng.gauss(0, 1):.4f}"
                                       for _ in range(dim)) + "\n")

    cum_weights = _zipf_cum_weights(len(work.vocab))
    paths["lm_corpus"] = directory / "lm_corpus.txt"
    with paths["lm_corpus"].open("w", encoding="utf-8") as f:
        for _ in range(size["corpus"]):
            f.write(" ".join(rng.choices(work.vocab, cum_weights=cum_weights,
                                         k=rng.randint(4, 10))) + "\n")
    return paths
