"""BLEU / ROUGE / METEOR / TER against hand computations and brute-force
oracles. The oracles are implemented here, independently of the package."""

import heapq
import inspect
import itertools
import math
import random
import string
import sys
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tseval.mtmetrics import (
    METEOR_ALPHA,
    METEOR_BETA,
    METEOR_GAMMA,
    METHOD4_K,
    BleuConfig,
    EditBreakdown,
    SMOOTHING_METHODS,
    SearchBudgetWarning,
    bleu,
    bleu_counts,
    meteor,
    rouge,
    ter_align,
)
from tseval import mtmetrics, qats_io
from tseval.textproc import porter_stem, tokenize


def T(s):
    return tokenize(s)


token_lists = st.lists(st.sampled_from("abcdef"), min_size=1, max_size=10)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def lcs_oracle(a, b):
    """Longest common subsequence by exhaustive subsequence enumeration."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    best = 0
    for k in range(len(short), 0, -1):
        for combo in itertools.combinations(short, k):
            it = iter(long_)
            if all(tok in it for tok in combo):
                return k
    return best


def lcs_dp_oracle(a, b):
    """Longest common subsequence by the quadratic dynamic program."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def ngram_counts(text, n):
    """Multiset of the text's order-n n-grams, never crossing sentences."""
    return Counter(sent[i:i + n] for sent in text.sentences
                   for i in range(len(sent) - n + 1))


def bleu_counts_oracle(source, output):
    """(clipped matches, candidate total) for orders 1..4, one n-gram
    multiset per order and text."""
    out = []
    for n in range(1, 5):
        cand = ngram_counts(output, n)
        ref = ngram_counts(source, n)
        out.append((sum(min(c, ref[g]) for g, c in cand.items()),
                    sum(cand.values())))
    return tuple(out)


def bleu_from_counts_oracle(counts, src_len, out_len, cfg):
    """Sentence BLEU for one config from (matches, total) per order, each
    precision, log and brevity penalty computed anew for the config."""
    if out_len == 0:
        return 0.0
    orders = [n for n in range(1, cfg.max_order + 1) if counts[n - 1][1] > 0]
    raw = [counts[n - 1] for n in orders]
    p = [num / den for num, den in raw]
    if any(num == 0 for num, _ in raw):
        if cfg.smoothing == "none":
            return 0.0
        inc = 1
        for i, (num, den) in enumerate(raw):
            if num == 0 and out_len > 1:
                p[i] = (math.log(out_len) / (2 ** inc * METHOD4_K)) / den
                inc += 1
        prev = p[0] + 1.0
        for i in range(len(p)):
            nxt = p[i + 1] if i + 1 < len(p) else 0.0
            p[i] = (prev + p[i] + nxt) / 3.0
            prev = p[i]
        p = [min(x, 1.0) for x in p]
    log_mean = sum(math.log(x) for x in p) / len(p)
    return math.exp(min(0.0, 1.0 - src_len / out_len)) * math.exp(log_mean)


def bleu_recount_oracle(source, output, cfg):
    """Sentence BLEU recounting n-gram profiles for every order it looks
    at, with the float operations in the package's order."""
    src_len, out_len = source.word_count, output.word_count
    if out_len == 0:
        return 0.0

    def raw_precisions(orders):
        out = []
        for n in orders:
            cand = ngram_counts(output, n)
            ref = ngram_counts(source, n)
            num = sum(min(c, ref.get(g, 0)) for g, c in cand.items())
            out.append((num, max(1, sum(cand.values()))))
        return out

    def neighbours(p, p_next):
        out = list(p)
        prev = p[0] + 1.0
        for i in range(len(out)):
            nxt = out[i + 1] if i + 1 < len(out) else p_next
            out[i] = (prev + out[i] + nxt) / 3.0
            prev = out[i]
        return out

    orders = [n for n in range(1, cfg.max_order + 1)
              if ngram_counts(output, n)]
    raw = raw_precisions(orders)
    if all(num > 0 for num, _ in raw):
        p = [num / den for num, den in raw]
    elif cfg.smoothing == "none":
        return 0.0
    else:  # method7
        (num, den), = raw_precisions([orders[-1] + 1])
        p_next = num / den
        p = [num / den for num, den in raw]
        inc = 1
        for i, (num, den) in enumerate(raw):
            if num == 0 and out_len > 1:
                p[i] = (math.log(out_len) / (2 ** inc * METHOD4_K)) / den
                inc += 1
        p = neighbours(p, p_next)
        p = [min(max(x, 0.0), 1.0) for x in p]
    if any(x == 0.0 for x in p):
        return 0.0
    log_mean = sum(math.log(x) for x in p) / len(p)
    return math.exp(min(0.0, 1.0 - src_len / out_len)) * math.exp(log_mean)


def lev_oracle_rows(a, b):
    """The rows of lev_oracle's table, each from the one before: row i is
    [lev_oracle(a[:i], b[:j]) for j in 0..len(b)]."""
    prev = list(range(len(b) + 1))
    yield prev
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (x != y)))
        yield cur
        prev = cur


def lev_oracle(a, b):
    """Plain quadratic edit distance, no vectorization."""
    for row in lev_oracle_rows(a, b):
        pass
    return row[-1]


def block_moves(seq):
    """Every sequence reachable by moving one contiguous block."""
    n = len(seq)
    seen = {tuple(seq)}
    for i in range(n):
        for length in range(1, n - i + 1):
            block = seq[i:i + length]
            rest = seq[:i] + seq[i + length:]
            for j in range(len(rest) + 1):
                cand = tuple(rest[:j] + block + rest[j:])
                if cand not in seen:
                    seen.add(cand)
                    yield cand


def best_moves_oracle(src, out, ed):
    """One greedy step scored move by move: every block move in the order
    length descending, start ascending, insertion point ascending, each
    scored by its own edit distance; returns the best reduction and the
    distinct sequences reaching it, in first-seen order."""
    n = len(out)
    best_delta = 0
    tied, seen = [], {out}
    dist = {out: ed}
    for length in range(n - 1, 0, -1):
        if 2 * length < best_delta:
            break
        for i in range(n - length + 1):
            block = out[i:i + length]
            rest = out[:i] + out[i + length:]
            deltas = []
            for j in range(len(rest) + 1):
                cand = rest[:j] + block + rest[j:]
                if cand not in dist:
                    dist[cand] = lev_oracle(src, cand)
                deltas.append(ed - dist[cand])
            top = max(deltas)
            if top < best_delta or top < 1:
                continue
            if top > best_delta:
                best_delta, tied, seen = top, [], {out}
            for j, delta in enumerate(deltas):
                cand = rest[:j] + block + rest[j:]
                if delta == top and cand not in seen:
                    seen.add(cand)
                    tied.append(cand)
    return best_delta, tied


def exact_refine_oracle(src, out, greedy):
    """Best-first search over move sequences from `out`, seeded and
    bounded by `greedy` = (moves, edit distance, sequence), that reaches
    each sequence move by move: every block length, start and insertion
    point of the remaining tokens, so each swap of two adjacent segments
    is reached twice. Returns (moves, edit distance, sequence) of the
    first state popped with a smaller total than the best so far."""
    best_total = greedy[0] + greedy[1]
    best = greedy
    dist = {out: 0}
    heap = [(0, out)]
    while heap:
        moves, state = heapq.heappop(heap)
        if moves != dist.get(state):
            continue
        ed = lev_oracle(src, state)
        if moves + ed < best_total:
            best_total = moves + ed
            best = (moves, ed, state)
        if moves + 1 >= best_total:
            continue
        n = len(state)
        for length in range(n - 1, 0, -1):
            for i in range(n - length + 1):
                block = state[i:i + length]
                rest = state[:i] + state[i + length:]
                for j in range(len(rest) + 1):
                    if j == i:
                        continue
                    cand = rest[:j] + block + rest[j:]
                    if moves + 1 < dist.get(cand, 1 << 30):
                        dist[cand] = moves + 1
                        heapq.heappush(heap, (moves + 1, cand))
    return best


def ter_oracle(src, out):
    """Minimum of (#moves + edit distance) over all block-move sequences,
    explored exhaustively in best-first order."""
    start = tuple(out)
    best = lev_oracle(src, start)
    dist = {start: 0}
    heap = [(0, start)]
    while heap:
        d, state = heapq.heappop(heap)
        if d != dist.get(state):
            continue
        best = min(best, d + lev_oracle(src, list(state)))
        if d + 1 >= best:
            continue
        for nxt in block_moves(list(state)):
            nd = d + 1
            if nd < dist.get(nxt, 10 ** 9) and nd < best:
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return best


def meteor_alignment_oracle(cand, ref, use_stem=True):
    """Best (exact_matches, total_matches, -chunks) over every injective
    unigram assignment, by brute-force enumeration."""
    compat = {}
    for i, c in enumerate(cand):
        for j, r in enumerate(ref):
            if c == r:
                compat[(i, j)] = "exact"
            elif use_stem and porter_stem(c) == porter_stem(r):
                compat[(i, j)] = "stem"

    best = (-1, -1, 0)  # exact, total, -chunks

    def chunks_of(pairs):
        pairs = sorted(pairs)
        count = 0
        prev = None
        for i, j in pairs:
            if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
                count += 1
            prev = (i, j)
        return count

    def recurse(i, used, pairs):
        nonlocal best
        if i == len(cand):
            exact = sum(1 for p in pairs if compat[p] == "exact")
            key = (exact, len(pairs), -chunks_of(pairs))
            if key > best:
                best = key
            return
        recurse(i + 1, used, pairs)
        for j in range(len(ref)):
            if (i, j) in compat and j not in used:
                recurse(i + 1, used | {j}, pairs + [(i, j)])

    recurse(0, frozenset(), [])
    return best


inflected_lists = st.lists(st.sampled_from(
    "the a run runs running jump jumps jumped".split()),
    min_size=1, max_size=6)


def adversarial_pairs(n):
    """(source, output) word lists on which METEOR's chunk search can reach
    NODE_BUDGET: 36-40 source words, 80 % of them drawn from 15 function
    words, and the output an 80 % subsample of the source, shuffled."""
    function_words = ("the", "a", "of", "and", "an", "or", "was", "were",
                      "on", "in", "to", "which", "is", "that", "with")
    rng = random.Random(2019)
    for _ in range(n):
        src = [rng.choice(function_words) if rng.random() < 0.8
               else "".join(rng.choices(string.ascii_lowercase,
                                        k=rng.randint(3, 9)))
               for _ in range(rng.randint(36, 40))]
        out = [w for w in src if rng.random() < 0.8]
        rng.shuffle(out)
        yield src, out


def meteor_score_from(exact, total, neg_chunks, n_cand, n_ref):
    if total == 0:
        return 0.0
    p = total / n_cand
    r = total / n_ref
    fmean = p * r / (METEOR_ALPHA * p + (1 - METEOR_ALPHA) * r)
    penalty = METEOR_GAMMA * (-neg_chunks / total) ** METEOR_BETA
    return fmean * (1 - penalty)


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

class TestBleu:
    def test_identity_scores_one(self):
        t = T("the cat sat on the mat")
        assert bleu(t, t) == 1.0

    def test_disjoint_unigrams_score_zero(self):
        assert bleu(T("a b c d e f"), T("x y z"), BleuConfig(max_order=1)) == 0.0

    def test_hand_counted_example(self):
        got = bleu(T("the cat sat on the mat"), T("the cat sat"),
                   BleuConfig(max_order=1))
        assert got == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_empty_output_scores_zero(self):
        assert bleu(T("a b"), T("")) == 0.0

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            bleu(T(""), T("a"))

    def test_clipping(self):
        # candidate repeats "the"; reference has it twice
        got = bleu(T("the cat the mat"), T("the the the"),
                   BleuConfig(max_order=1))
        # p1 = 2/3, BP = exp(1 - 4/3)
        assert got == pytest.approx((2 / 3) * math.exp(1 - 4 / 3), abs=1e-12)

    def test_short_output_uses_effective_orders(self):
        # 2-token identical pair has no 3/4-grams; identity must still be 1
        t = T("alpha beta")
        assert bleu(t, t, BleuConfig(max_order=4)) == 1.0

    def test_brevity_penalty_only_for_short_candidates(self):
        src = T("a b c")
        long_out = T("a b c d e")
        got = bleu(src, long_out, BleuConfig(max_order=1))
        assert got == pytest.approx(3 / 5, abs=1e-12)  # no BP, p1 = 3/5

    @given(token_lists, token_lists)
    @settings(max_examples=150, deadline=None)
    def test_range_and_smoothing_monotonicity(self, a, b):
        src, out = T(" ".join(a)), T(" ".join(b))
        plain = bleu(src, out)
        assert 0.0 <= plain <= 1.0
        smoothed = bleu(src, out, BleuConfig(max_order=4, smoothing="method7"))
        assert 0.0 <= smoothed <= 1.0
        assert smoothed >= plain - 1e-12
        # when no precision is zero, smoothing must not change the score
        orders = [n for n in range(1, 5)
                  if any(len(s) >= n for s in out.sentences)]
        counts = bleu_counts(src, out)
        raw = [counts[n - 1] for n in orders]
        if all(num > 0 for num, _ in raw):
            assert smoothed == pytest.approx(plain, abs=1e-12)

    @given(st.integers(1, 10 ** 9),
           st.lists(st.tuples(st.integers(0, 10 ** 9),
                              st.integers(1, 10 ** 9)), min_size=1,
                    max_size=4),
           st.integers(0, 3))
    def test_smoothed_precisions_lie_in_zero_one(self, hyp_len, raw, zero):
        # (matches, total) per order: total <= the output's length, matches
        # <= total, and smoothing only runs when some order has no match
        raw = [(min(num, den, hyp_len), min(den, hyp_len))
               for num, den in raw]
        raw[zero % len(raw)] = (0, raw[zero % len(raw)][1])
        assert all(0.0 < p <= 1.0 for p in mtmetrics._smooth(raw, hyp_len))

    # Tokens ending in "." close a sentence, so n-grams must stop at
    # sentence bounds; "c." next to "c" shares the word.
    _multi_sentence = st.lists(st.sampled_from("a b c d a. c.".split()),
                               min_size=0, max_size=14)

    def test_counts_stop_at_sentence_bounds(self):
        # "b c" is a bigram of the output but spans two source sentences
        assert bleu_counts(T("a b. c d."), T("b c."))[1] == (0, 1)

    @given(_multi_sentence.filter(bool), _multi_sentence)
    @settings(max_examples=150, deadline=None)
    def test_counts_match_per_order_profiles(self, a, b):
        src, out = T(" ".join(a)), T(" ".join(b))
        assert bleu_counts(src, out) == bleu_counts_oracle(src, out)

    @given(_multi_sentence.filter(bool), _multi_sentence)
    @settings(max_examples=150, deadline=None)
    def test_matches_recount_formula_bit_for_bit(self, a, b):
        src, out = T(" ".join(a)), T(" ".join(b))
        for method in SMOOTHING_METHODS:
            for max_order in (1, 2, 3, 4):
                cfg = BleuConfig(max_order=max_order, smoothing=method)
                assert bleu(src, out, cfg) == bleu_recount_oracle(src, out,
                                                                  cfg)

    ALL_CONFIGS = [BleuConfig(max_order=n, smoothing=method)
                   for method in SMOOTHING_METHODS for n in (1, 2, 3, 4)]

    @given(_multi_sentence.filter(bool),
           st.one_of(_multi_sentence.map(lambda b: b[:3]), _multi_sentence))
    @example(["a", "b", "c"], [])
    @example(["a.", "b", "c."], ["c.", "a", "b."])  # no bigram matches
    @settings(max_examples=300, deadline=None)
    def test_all_configs_match_per_config_formula_bit_for_bit(self, a, b):
        src, out = T(" ".join(a)), T(" ".join(b))
        counts = bleu_counts(src, out)
        expected = [bleu_from_counts_oracle(counts, src.word_count,
                                            out.word_count, cfg)
                    for cfg in self.ALL_CONFIGS]
        assert [bleu(src, out, cfg) for cfg in self.ALL_CONFIGS] == expected
        assert mtmetrics.bleu_from_counts(counts, src.word_count,
                                          out.word_count,
                                          self.ALL_CONFIGS) == expected

    def test_method7_positive_on_partial_match(self):
        got = bleu(T("the cat sat on the mat"), T("the cat naps"),
                   BleuConfig(max_order=4, smoothing="method7"))
        assert 0.0 < got < 1.0

    def test_method7_hand_computed(self):
        # src "a b c d", out "a b x", max_order=3: raw precisions
        # p1 = 2/3, p2 = 1/2, p3 = 0/1 and brevity penalty exp(1 - 4/3).
        # Method 4's decay makes p3 (ln 3 / (2 * 5)) / 1; then
        # p1' = (p1+1 + p1 + p2)/3, p2' = (p1' + p2 + p3)/3,
        # p3' = (p2' + p3 + p4)/3 with p4 = 0 (no candidate 4-grams).
        p1, p2, p3, p4 = 2 / 3, 1 / 2, math.log(3) / 10, 0.0
        m1 = ((p1 + 1) + p1 + p2) / 3
        m2 = (m1 + p2 + p3) / 3
        m3 = (m2 + p3 + p4) / 3
        expected = math.exp(1 - 4 / 3) * (m1 * m2 * m3) ** (1 / 3)
        got = bleu(T("a b c d"), T("a b x"),
                   BleuConfig(max_order=3, smoothing="method7"))
        assert got == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# ROUGE-L
# ---------------------------------------------------------------------------

class TestRouge:
    def test_identity(self):
        t = T("a b c d")
        assert rouge(t, t) == 1.0

    def test_disjoint(self):
        assert rouge(T("a b"), T("x y")) == 0.0

    def test_hand_example(self):
        assert rouge(T("a b c d"), T("a c d")) == pytest.approx(6 / 7, abs=1e-12)

    def test_empty_output(self):
        assert rouge(T("a b"), T("")) == 0.0

    @given(token_lists, token_lists)
    @settings(max_examples=100, deadline=None)
    def test_matches_exhaustive_lcs_oracle(self, a, b):
        a, b = a[:7], b[:7]
        src, out = T(" ".join(a)), T(" ".join(b))
        lcs = lcs_oracle(src.words, out.words)
        if lcs == 0:
            expected = 0.0
        else:
            p = lcs / len(out.words)
            r = lcs / len(src.words)
            expected = 2 * p * r / (p + r)
        got = rouge(src, out)
        assert 0.0 <= got <= 1.0
        assert got == pytest.approx(expected, abs=1e-12)

    def test_long_inputs_match_quadratic_lcs(self):
        # masks up to 200 bits wide, well past one machine word
        rng = random.Random(2004)
        words = ("the", "a", "of", "cat", "sat")
        for _ in range(40):
            a = [rng.choice(words) for _ in range(rng.randint(0, 200))]
            b = [rng.choice(words) for _ in range(rng.randint(0, 200))]
            assert mtmetrics._lcs_length(a, b) == lcs_dp_oracle(a, b), (a, b)


# ---------------------------------------------------------------------------
# METEOR
# ---------------------------------------------------------------------------

class TestMeteor:
    def test_identity_ten_tokens(self):
        t = T("a b c d e f g h i j")
        assert meteor(t, t) == pytest.approx(0.9995, abs=1e-12)

    def test_disjoint(self):
        assert meteor(T("a b c"), T("x y z")) == 0.0

    def test_reordered_chunks(self):
        got = meteor(T("the cat sat"), T("sat the cat"))
        expected = 1.0 * (1 - 0.5 * (2 / 3) ** 3)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_stem_stage_matches_inflections(self):
        src = T("the cats sat")
        assert meteor(src, T("the cat sat")) > meteor(src, T("the dog sat"))

    def test_empty_output(self):
        assert meteor(T("a b"), T("")) == 0.0

    @given(token_lists, token_lists)
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_alignment_oracle(self, a, b):
        a, b = a[:6], b[:6]
        src, out = T(" ".join(a)), T(" ".join(b))
        exact, total, neg_chunks = meteor_alignment_oracle(out.words, src.words)
        expected = meteor_score_from(exact, total, neg_chunks,
                                     len(out.words), len(src.words))
        got = meteor(src, out)
        assert 0.0 <= got <= 1.0
        assert got == pytest.approx(expected, abs=1e-12)

    def test_inflection_alignment_oracle(self):
        # mixes exact and stem matches with repeated words
        src = T("run the run running fast")
        out = T("running run the run")
        exact, total, neg_chunks = meteor_alignment_oracle(out.words, src.words)
        expected = meteor_score_from(exact, total, neg_chunks,
                                     len(out.words), len(src.words))
        assert meteor(src, out) == pytest.approx(expected, abs=1e-12)

    def test_inflected_pairs_match_alignment_oracle(self):
        # porter_stem leaves words of at most two letters as they are, so
        # only longer inflected words reach the stem stage, the ref
        # availability guard and the stem-class feasibility check
        words = ("the a run runs running runner "
                 "jump jumps jumped jumping").split()
        rng = random.Random(7)
        with_stem_matches = 0
        for _ in range(300):
            src = T(" ".join(rng.choices(words, k=rng.randint(1, 6))))
            out = T(" ".join(rng.choices(words, k=rng.randint(1, 6))))
            exact, total, neg_chunks = meteor_alignment_oracle(out.words,
                                                               src.words)
            with_stem_matches += total > exact
            expected = meteor_score_from(exact, total, neg_chunks,
                                         len(out.words), len(src.words))
            assert meteor(src, out) == pytest.approx(expected, abs=1e-12)
        assert with_stem_matches >= 100

    # Scores of four function-word-heavy pairs with inflected words, per
    # node budget. UNBOUNDED_SCORES are those of the same search without
    # the segment bound: budgets 82 and 549 were one node short of a
    # better alignment that budgets 83 and 550 reached. The bound prunes
    # nodes that search expanded, and at each budget here the search gets
    # at least as far: each pinned score is at least the unbounded one.
    # Moving the point where nodes are counted, or any pruning that
    # changes the visit order, changes a score.
    UNBOUNDED_SCORES = {
        82: (0.47861409796893667, 0.6845025226653265,
             0.7378569647088166, 0.5190548780487805),
        83: (0.47861409796893667, 0.7373721752914113,
             0.7378569647088166, 0.5190548780487805),
        549: (0.47861409796893667, 0.7373721752914113,
              0.7378569647088166, 0.5190548780487805),
        550: (0.47861409796893667, 0.7373721752914113,
              0.7744107744107744, 0.5190548780487805),
        mtmetrics.NODE_BUDGET: (0.7193548387096774, 0.7373721752914113,
                                0.8053529118343934, 0.5711699695121951),
    }
    BUDGET_SCORES = {
        82: (0.47861409796893667, 0.7373721752914113,
             0.7378569647088166, 0.5711699695121951),
        83: (0.47861409796893667, 0.7373721752914113,
             0.7378569647088166, 0.5711699695121951),
        549: (0.47861409796893667, 0.7373721752914113,
              0.7744107744107744, 0.5711699695121951),
        550: (0.47861409796893667, 0.7373721752914113,
              0.7744107744107744, 0.5711699695121951),
        mtmetrics.NODE_BUDGET: (0.7193548387096774, 0.7373721752914113,
                                0.8053529118343934, 0.5711699695121951),
    }

    @staticmethod
    def heavy_pairs():
        heavy = ("the", "a", "of", "and", "an", "or")
        inflections = (("run", "runs", "running"), ("jump", "jumps", "jumped"))
        rng = random.Random(3)
        for _ in range(4):
            src = [rng.choice(heavy) if rng.random() < 0.7
                   else rng.choice(rng.choice(inflections))
                   for _ in range(rng.randint(18, 22))]
            out = [rng.choice(next(f for f in inflections if w in f))
                   if rng.random() < 0.5 and len(w) > 3 else w
                   for w in src if rng.random() < 0.8]
            rng.shuffle(out)
            yield T(" ".join(src)), T(" ".join(out))

    @pytest.mark.filterwarnings("ignore::tseval.mtmetrics.SearchBudgetWarning")
    @pytest.mark.parametrize("budget", sorted(BUDGET_SCORES))
    def test_node_budget_pins_scores(self, budget, monkeypatch):
        monkeypatch.setattr(mtmetrics, "NODE_BUDGET", budget)
        got = tuple(meteor(src, out) for src, out in self.heavy_pairs())
        assert got == self.BUDGET_SCORES[budget]
        assert all(a >= b for a, b in zip(got, self.UNBOUNDED_SCORES[budget]))

    def test_chunks_never_rise_with_budget(self, monkeypatch):
        budgets = sorted({0, 10, 100, 1000, 5000, *self.BUDGET_SCORES})
        rows = []
        for budget in budgets:
            monkeypatch.setattr(mtmetrics, "NODE_BUDGET", budget)
            rows.append([mtmetrics._align(out.words, src.words)[1]
                         for src, out in self.heavy_pairs()])
        for budget, fewer, more in zip(budgets[1:], rows, rows[1:]):
            assert all(b <= a for a, b in zip(fewer, more)), budget

    def test_budget_stop_is_flagged(self, monkeypatch):
        src, out = next(self.heavy_pairs())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            meteor(src, out)
        assert mtmetrics._align(out.words, src.words)[2]
        monkeypatch.setattr(mtmetrics, "NODE_BUDGET", 82)
        assert not mtmetrics._align(out.words, src.words)[2]
        with pytest.warns(SearchBudgetWarning, match="NODE_BUDGET"):
            assert meteor(src, out) == self.BUDGET_SCORES[82][0]

    def test_small_budget_trips_on_heavy_pairs(self):
        # the budgets above stop the search short of the exact chunk count
        exact = self.BUDGET_SCORES[mtmetrics.NODE_BUDGET]
        assert all(any(a != b for a, b in zip(scores, exact))
                   for budget, scores in self.BUDGET_SCORES.items()
                   if budget < mtmetrics.NODE_BUDGET)

    @given(inflected_lists, inflected_lists)
    @settings(max_examples=80, deadline=None)
    def test_root_bound_is_admissible(self, cand, ref):
        _, total, neg_chunks = meteor_alignment_oracle(cand, ref)
        _, exact, stem = mtmetrics._quotas(Counter(cand), Counter(ref))
        matches = sum(exact.values()) + sum(stem.values())
        assert matches == total
        tables = mtmetrics._tables(cand, ref)
        if total:
            # the root of the search's bound is the one _tables computes
            fewest_new_chunks = mtmetrics._chunk_bound(len(cand),
                                                       tables.segments)
            assert fewest_new_chunks(0, matches, -2) == tables.root
            assert 1 <= tables.root <= -neg_chunks
        else:
            assert tables is None

    @staticmethod
    def search_alone(cand, ref):
        tables = mtmetrics._tables(cand, ref)
        if tables is None:
            return 0, 0, True
        return mtmetrics._search(cand, ref, tables)

    @given(inflected_lists, inflected_lists, st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    def test_search_and_greedy_alignment_match_the_oracle(self, cand, ref,
                                                          budget):
        _, total, neg_chunks = meteor_alignment_oracle(cand, ref)
        # the search alone finds the fewest chunks on every input
        assert self.search_alone(cand, ref) == (total, -neg_chunks, True)
        # a greedy alignment that meets the root bound is optimal, so
        # _align returns it at any budget; elsewhere _align is the search
        tables = mtmetrics._tables(cand, ref)
        greedy = tables is not None and mtmetrics._greedy_meets_root(
            cand, ref, tables)
        if greedy:
            assert -neg_chunks == tables.root
        for b in (0, budget, mtmetrics.NODE_BUDGET):
            with mock.patch.object(mtmetrics, "NODE_BUDGET", b):
                assert mtmetrics._align(cand, ref) == (
                    (total, tables.root, True) if greedy
                    else self.search_alone(cand, ref))

    # (matches, chunks, exhaustive) per node budget on a 60-word output
    # that is its source with the halves swapped, whose greedy alignment
    # meets its root bound of 2 chunks, and on the first heavy pair, whose
    # greedy alignment does not. The swapped pair's count is exact at
    # every budget, though below 59 nodes the search alone stops at
    # (60, 60, False); the heavy pair's is the search's.
    GATED_ALIGNMENTS = {
        0: ((60, 2, True), (15, 15, False)),
        10: ((60, 2, True), (15, 15, False)),
        58: ((60, 2, True), (15, 14, False)),
        59: ((60, 2, True), (15, 14, False)),
    }

    @pytest.mark.parametrize("budget", sorted(GATED_ALIGNMENTS))
    def test_budget_below_the_output_length_runs_the_search(self, budget,
                                                            monkeypatch):
        rng = random.Random(0)
        words = [f"w{rng.randrange(60)}" for _ in range(60)]
        src, out = next(self.heavy_pairs())
        pairs = [(words[30:] + words[:30], words), (out.words, src.words)]
        assert [mtmetrics._greedy_meets_root(*pair, mtmetrics._tables(*pair))
                for pair in pairs] == [True, False]
        monkeypatch.setattr(mtmetrics, "NODE_BUDGET", budget)
        got = tuple(mtmetrics._align(cand, ref) for cand, ref in pairs)
        assert got == self.GATED_ALIGNMENTS[budget]
        assert got[1] == self.search_alone(*pairs[1])
        if budget < 59:
            assert self.search_alone(*pairs[0]) == (60, 60, False)

    def test_search_does_not_recurse(self):
        # The output is the 300-word source with about a fifth of its words
        # replaced, so the search path runs through 300 output positions,
        # and each kept run is one chunk of the optimum. A search that
        # recursed once per position would overflow the limit below.
        rng = random.Random(0)
        ref = [f"w{rng.randrange(1000)}" for _ in range(300)]
        cand = [w if rng.random() < 0.8 else "x" for w in ref]
        runs = sum(w != "x" and (i == 0 or cand[i - 1] == "x")
                   for i, w in enumerate(cand))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        try:
            got = mtmetrics._align(cand, ref)
        finally:
            sys.setrecursionlimit(limit)
        assert got == (300 - cand.count("x"), runs, True)

    # An output that is its source with the halves swapped has 2 chunks.
    # A search that offered each word's matches in ascending source order
    # followed the source order first, ran out of budget deep in the tree
    # and stopped at 92, 41 and 85 chunks on the 300-word sources, and at
    # 9 and 27 on the 60-word ones. With the suffix "s" on every output
    # word, all matches are stem matches, so the stem stage is searched.
    @pytest.mark.parametrize("suffix", ["", "s"])
    @pytest.mark.parametrize("size,types,seed", [
        (300, 1000, 0), (300, 1000, 1), (300, 1000, 2), (60, 60, 0),
        (60, 60, 1)])
    def test_swapped_halves_are_found_at_two_chunks(self, size, types, seed,
                                                    suffix):
        rng = random.Random(seed)
        ref = [f"w{rng.randrange(types)}" for _ in range(size)]
        cand = [w + suffix for w in ref[size // 2:] + ref[:size // 2]]
        assert all(porter_stem(w) == porter_stem(w + suffix) for w in ref)
        assert mtmetrics._align(cand, ref) == (size, 2, True)

    def test_adversarial_pairs_trips_and_chunks(self):
        # the search that offered matches in ascending source order
        # stopped at the budget on 20 of these pairs, with 2 663 chunks
        trips = total = 0
        for ref, cand in adversarial_pairs(100):
            _, chunks, exhaustive = mtmetrics._align(cand, ref)
            trips += not exhaustive
            total += chunks
        assert trips <= 19 and total <= 2656, (trips, total)

    # Chunk counts of the first five adversarial pairs at a budget of
    # 20 000 nodes, as the search without the segment bound gave them; it
    # stopped at the budget on all five.
    ADVERSARIAL_UNBOUNDED_CHUNKS = (27, 30, 28, 26, 27)

    def test_adversarial_pairs_no_worse_at_the_budget(self, monkeypatch):
        monkeypatch.setattr(mtmetrics, "NODE_BUDGET", 20_000)
        got = tuple(mtmetrics._align(cand, ref)[1]
                    for ref, cand in adversarial_pairs(5))
        assert all(a <= b for a, b in
                   zip(got, self.ADVERSARIAL_UNBOUNDED_CHUNKS)), got


# ---------------------------------------------------------------------------
# TER
# ---------------------------------------------------------------------------

class TestDistanceTable:
    @given(st.lists(st.integers(0, 3), max_size=8),
           st.lists(st.integers(0, 3), max_size=8))
    @example([0, 1, 2], [])
    @example([], [0, 1])
    @example([0], [0])
    @example([0], [1])
    @example([1], [0, 1, 1])
    @settings(max_examples=150, deadline=None)
    def test_every_cell_is_the_prefix_edit_distance(self, a, b):
        # a is the output and b the source: lane 0 steps through a, lane 1
        # through reversed a against reversed b; a row holds D[q] - q
        n, m = len(a), len(b)
        table = mtmetrics._step_table(tuple(b), tuple(a))
        tokens = np.array([(k, 2 * n - 1 - k) for k in range(n)],
                          dtype=np.intp).reshape(n, 2)
        rows = mtmetrics._prefix_rows(table, tokens) + np.arange(m + 1)
        assert rows.shape == (n + 1, 2, m + 1)
        for k in range(n + 1):
            assert rows[k, 0].tolist() == [lev_oracle(a[:k], b[:q])
                                           for q in range(m + 1)], (a, b, k)
            assert rows[k, 1].tolist() == [lev_oracle(a[n - k:], b[m - q:])
                                           for q in range(m + 1)], (a, b, k)


# Short sides and sides of 60-130 items, so that the masks span several
# 30-bit digits of a Python int; 1-4 symbols, so that many items repeat.
def _symbol_lists(k):
    return st.one_of(st.integers(0, 8), st.integers(60, 130)).flatmap(
        lambda n: st.lists(st.integers(0, k - 1), min_size=n, max_size=n))


class TestLevenshtein:
    @given(st.integers(1, 4).flatmap(
        lambda k: st.tuples(_symbol_lists(k), _symbol_lists(k))))
    @example(([], []))
    @example(([0, 1, 2], []))
    @example(([], [0, 0]))
    @example(([0] * 130, [0] * 60))
    @example(([0, 1] * 65, [1, 0] * 65))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_quadratic_distance(self, sides):
        a, b = sides
        got = mtmetrics._levenshtein(a, b)
        assert got == lev_oracle(a, b), (a, b)
        assert mtmetrics._levenshtein(b, a) == got

    @given(st.integers(1, 4).flatmap(
        lambda k: st.tuples(_symbol_lists(k), _symbol_lists(k))))
    @example(([], []))
    @example(([0, 1, 2], []))
    @example(([], [0, 0]))
    @example(([0, 1] * 65, [1, 0] * 65))
    @settings(max_examples=100, deadline=None)
    def test_every_cell_of_the_columns_is_the_prefix_distance(self, sides):
        # cell (i, j) read by popcount from the i low bits of column j;
        # _levenshtein reads the whole column, so no bit may lie above
        a, b = sides
        columns = mtmetrics._columns(a, b)
        assert len(columns) == len(b) + 1
        assert all(pv & mv == 0 and (pv | mv) >> len(a) == 0
                   for pv, mv in columns), (a, b)
        for i, row in enumerate(lev_oracle_rows(a, b)):
            low = (1 << i) - 1
            assert [j + (pv & low).bit_count() - (mv & low).bit_count()
                    for j, (pv, mv) in enumerate(columns)] == row, (a, b, i)

    def test_words_as_items(self):
        assert mtmetrics._levenshtein("the cat sat".split(),
                                      "a cat sat down".split()) == 2


def decompose_oracle(src, out):
    """(insertions, deletions, substitutions, matches) of the backtrace of
    a plain source-major list DP, diagonal first, then deletion, then
    insertion."""
    dp = [list(range(len(out) + 1))]
    for i, x in enumerate(src, 1):
        row = [i]
        for j, y in enumerate(out, 1):
            row.append(min(dp[-1][j] + 1, row[-1] + 1,
                           dp[-1][j - 1] + (x != y)))
        dp.append(row)
    ins = dels = subs = matches = 0
    i, j = len(src), len(out)
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            step = int(src[i - 1] != out[j - 1])
            if dp[i][j] == dp[i - 1][j - 1] + step:
                matches += 1 - step
                subs += step
                i -= 1
                j -= 1
                continue
        if i > 0 and dp[i][j] == dp[i - 1][j] + 1:
            dels += 1
            i -= 1
            continue
        ins += 1
        j -= 1
    return ins, dels, subs, matches


class TestDecompose:
    # at least one side of 60-130 items: columns whose bit vectors span
    # several 30-bit digits of a Python int, or many columns
    @given(st.integers(1, 4).flatmap(
        lambda k: st.tuples(_symbol_lists(k), _symbol_lists(k))).filter(
            lambda sides: max(map(len, sides)) >= 60))
    @example(([0] * 130, [0] * 60))
    @example(([0] * 60, []))
    @example(([0, 1] * 65, [1, 0] * 65))
    @example(([0, 1, 2, 3] * 16, [3, 2, 1, 0] * 30))
    # at the last cell no diagonal fits, but deletion and insertion both
    # do, so the tie order decides the counts
    @example(([0, 1, 2, 3] * 15 + [3, 3, 1, 3, 2, 0],
              [0, 1, 2, 3] * 15 + [2, 0, 2]))
    @settings(max_examples=100, deadline=None)
    def test_long_sides_equal_the_list_backtrace(self, sides):
        src, out = map(tuple, sides)
        got = mtmetrics._decompose(src, out)
        assert got == decompose_oracle(src, out), (src, out)
        ins, dels, subs, matches = got
        assert ins + dels + subs == lev_oracle(src, out)
        assert ins - dels == len(out) - len(src)
        assert matches + subs + dels == len(src)


def multiset_lower_bound_oracle(src, out):
    """max(|src|, |out|) minus the overlap summed per type from two
    Counters."""
    cs, co = Counter(src), Counter(out)
    overlap = sum(min(c, co.get(t, 0)) for t, c in cs.items())
    return max(len(src) - overlap, len(out) - overlap)


@given(st.integers(1, 6).flatmap(lambda k: st.tuples(
    st.lists(st.integers(0, k - 1), max_size=40),
    st.lists(st.integers(0, k + 1), max_size=40))))
@example(([], []))
@example(([0, 0, 1], []))
@example(([], [2, 2]))
@example(([0, 0, 0, 1], [0, 1, 1, 1, 3]))
@settings(max_examples=300, deadline=None)
def test_multiset_lower_bound_equals_the_counter_formula(sides):
    src, out = sides
    assert (mtmetrics._multiset_lower_bound(src, out)
            == multiset_lower_bound_oracle(src, out)), sides
    words = [f"w{t}" for t in src], [f"w{t}" for t in out]
    assert (mtmetrics._multiset_lower_bound(*words)
            == multiset_lower_bound_oracle(*words))


def _workload_pairs(name, bench):
    """(source, output) TokenizedTexts of a benchmark workload's seed-1
    pairs, tokenized from the text its input files hold."""
    text = bench.workloads._text
    work = bench.work(name, 1)
    return [(T(text([p.src])), T(text(p.out_sents)))
            for p in work.train + work.test]


class TestTerAlign:
    def test_identity(self):
        t = T("a b c d e")
        got = ter_align(t, t)
        assert got.num_errors == 0
        assert got.normalized_score == 0.0
        assert got.matches == 5

    def test_pure_deletion(self):
        got = ter_align(T("a b c d"), T("a b c"))
        assert (got.deletions, got.num_errors) == (1, 1)
        assert got.normalized_score == 0.25

    def test_shift_beats_two_substitutions(self):
        got = ter_align(T("a b c d"), T("a c b d"))
        assert (got.shifts, got.num_errors) == (1, 1)
        assert got.substitutions == 0
        assert got.normalized_score == 0.25

    def test_empty_output(self):
        got = ter_align(T("a b c"), T(""))
        assert got.deletions == 3
        assert got.shifts == 0
        assert got.num_errors == 3

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            ter_align(T(""), T("a b"))

    def test_reversed_seven_tokens_fast_and_consistent(self):
        src = T("a b c d e f g")
        out = T("g f e d c b a")
        got = ter_align(src, out)
        assert got.num_errors <= lev_oracle(src.words, out.words)
        assert got.num_errors == ter_oracle(src.words, out.words)

    def test_longer_output_can_exceed_one(self):
        got = ter_align(T("a"), T("x y z"))
        assert got.normalized_score > 1.0

    def test_counts_invariants(self):
        src, out = T("a b c d e f"), T("b a x f")
        got = ter_align(src, out)
        assert got.num_errors == (got.insertions + got.deletions
                                  + got.substitutions + got.shifts)
        assert got.matches + got.substitutions + got.deletions == 6

    @given(token_lists, token_lists)
    @settings(max_examples=100, deadline=None)
    def test_never_worse_than_plain_edit_distance(self, a, b):
        src, out = T(" ".join(a)), T(" ".join(b))
        got = ter_align(src, out)
        assert got.num_errors <= lev_oracle(src.words, out.words)
        assert (got.matches + got.substitutions + got.deletions
                == src.word_count)

    @pytest.mark.parametrize("chunk_cells,cases", [(None, 80), (1, 20)])
    def test_greedy_step_matches_move_by_move_scoring(self, chunk_cells,
                                                      cases, monkeypatch):
        if chunk_cells is not None:  # one b value per chunk
            monkeypatch.setattr(mtmetrics, "CHUNK_CELLS", chunk_cells)
        rng = random.Random(31)
        for _ in range(cases):
            k = rng.randint(2, 6)
            src = tuple(rng.randrange(k) for _ in range(rng.randint(2, 20)))
            out = tuple(rng.randrange(k) for _ in range(rng.randint(2, 20)))
            ed = lev_oracle(src, out)
            delta, tied = best_moves_oracle(src, out, ed)
            assert (mtmetrics._best_move(src, out, ed)
                    == (delta, tied[0] if tied else None)), (src, out)

    @pytest.mark.parametrize("chunk_cells", [None, 1])
    def test_swap_distances_list_every_swap_once(self, chunk_cells,
                                                 monkeypatch):
        if chunk_cells is not None:  # one b value per chunk
            monkeypatch.setattr(mtmetrics, "CHUNK_CELLS", chunk_cells)
        rng = random.Random(47)
        for _ in range(60):
            k = rng.randint(2, 6)
            src = tuple(rng.randrange(k) for _ in range(rng.randint(1, 12)))
            out = tuple(rng.randrange(k) for _ in range(rng.randint(2, 12)))
            a, b, c, d = (x.tolist()
                          for x in mtmetrics._swap_distances(src, out))
            swaps = list(zip(a, b, c))
            assert sorted(swaps) == list(
                itertools.combinations(range(len(out) + 1), 3)), (src, out)
            assert d == [lev_oracle(src, out[:a] + out[b:c] + out[a:b]
                                    + out[c:])
                         for a, b, c in swaps], (src, out)

    @pytest.mark.parametrize("out", [(), (1,)])
    def test_swap_distances_of_a_short_output_are_empty(self, out):
        got = mtmetrics._swap_distances((0, 1), out)
        assert len(got) == 4
        for x in got:
            assert x.shape == (0,) and x.dtype.kind == "i"

    @pytest.mark.parametrize("chunk_cells", [None, 1])
    @pytest.mark.parametrize("n, m, known", [
        (63, 50, True), (64, 50, True), (50, 64, True),
        (63, 63, False), (64, 20, False)])
    def test_swap_distances_equal_the_oracle_at_the_row_dtype_switch(
            self, n, m, known, chunk_cells, monkeypatch):
        # max(n, m) <= 63 gives int8 rows and 64 int16 ones. An output of
        # unknown words is max(n, m) from the source after every swap, the
        # largest distance the rows hold. A sample of swaps is checked.
        if chunk_cells is not None:  # one b value per chunk
            monkeypatch.setattr(mtmetrics, "CHUNK_CELLS", chunk_cells)
        rng = random.Random(100 * n + m)
        src = tuple(rng.randrange(4) for _ in range(m))
        out = tuple(rng.randrange(4) if known else 4 + i for i in range(n))
        a, b, c, d = (x.tolist() for x in mtmetrics._swap_distances(src, out))
        swaps = list(zip(a, b, c))
        assert sorted(swaps) == list(itertools.combinations(range(n + 1), 3))
        if not known:
            assert set(d) == {max(n, m)}
        for i in rng.sample(range(len(swaps)), 40):
            a, b, c = swaps[i]
            assert d[i] == lev_oracle(src, out[:a] + out[b:c] + out[a:b]
                                      + out[c:]), swaps[i]

    def test_swap_distances_memory_on_44_words(self):
        # the first greedy step of test_two_block_moves_in_44_distinct_words,
        # as word ids
        words = list(range(44))

        def move(seq, at):  # three words from `at`, five places right
            rest = seq[:at] + seq[at + 3:]
            return rest[:at + 5] + seq[at:at + 3] + rest[at + 5:]

        src = tuple(words)
        out = tuple(move(words[:22], 4) + move(words[22:], 8))
        mtmetrics._swap_distances(src, out)  # numpy's one-time allocations
        tracemalloc.start()
        try:
            d = mtmetrics._swap_distances(src, out)[3]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(d) == math.comb(45, 3)
        assert peak <= 4 * 2 ** 20

    @pytest.mark.parametrize("seed_with", ["no-move", "greedy"])
    def test_exact_refine_matches_move_by_move_search(self, seed_with,
                                                      monkeypatch):
        # the greedy plan alone: no output is short enough to refine
        monkeypatch.setattr(mtmetrics, "EXACT_LIMIT", 0)
        rng = random.Random(53)
        for _ in range(400):
            k = rng.randint(2, 6)
            src = tuple(rng.randrange(k) for _ in range(rng.randint(1, 7)))
            out = tuple(rng.randrange(k) for _ in range(rng.randint(0, 7)))
            ed = lev_oracle(src, out)
            lb = mtmetrics._multiset_lower_bound(src, out)
            greedy = (0, ed, out)
            if seed_with == "greedy":
                greedy = mtmetrics._plan_shifts(src, out, ed, lb)
            assert (mtmetrics._exact_refine(src, out, lb, greedy)
                    == exact_refine_oracle(src, out, greedy)), (src, out)

    def test_exact_refine_stops_at_the_root_when_greedy_is_one_above_the_bound(
            self, monkeypatch):
        # "b a c d e f x": one shift and the insertion of x, a greedy
        # total of lb + 1 = 2. No child of the root can total less, so
        # the refinement scores only the root; without the bound it
        # scored the root's 56 children too.
        calls = []
        levenshtein = mtmetrics._levenshtein
        monkeypatch.setattr(mtmetrics, "_levenshtein",
                            lambda a, b: calls.append(1) or levenshtein(a, b))
        got = ter_align(T("a b c d e f"), T("b a c d e f x"))
        assert (got.insertions, got.deletions, got.substitutions,
                got.shifts, got.matches) == (1, 0, 0, 1, 6)
        assert len(calls) == 2

    def test_repetitive_reordered_pair_takes_one_scoring_per_shift(
            self, monkeypatch):
        # 41 -> 27 words with repeated function words: a search that
        # follows every tied best move made 4 148 greedy steps here
        src = T("Ccbedef bhswseam ablbenpsgp was on or the the aadi ofcubveir "
                "aonww beofoeei an and askcajg an were acpbrmd fratwvkfa the "
                "mfgpisfpdt an ablbenpsgp a the kaf a vpeat fmgl which the "
                "ifmsdb fhjdb onjdjbp of ahtnnk ksijak cekrpp ioncmpvos "
                "atunle of.")
        out = T("Which the fhjdb ksijak cekrpp ekpsr ccbedef the acpbrmd the "
                "mctnewr were mfgpisfpdt ablbenpsgp or the aadi ofcubveir an "
                "and askcajg an a kaf vpeat fmgl of.")
        calls = []
        scored = mtmetrics._swap_distances
        monkeypatch.setattr(mtmetrics, "_swap_distances",
                            lambda src, seq: calls.append(1)
                            or scored(src, seq))
        got = ter_align(src, out)
        a, b = src.words, out.words
        common = sum(min(a.count(w), b.count(w)) for w in set(a))
        lb = max(len(a), len(b)) - common
        lev = lev_oracle(a, b)
        assert len(calls) <= lev - lb + 1
        assert lb <= got.num_errors <= 21

    def test_two_block_moves_in_44_distinct_words(self):
        words = [f"w{i}" for i in range(44)]

        def move(seq, at):  # three words from `at`, five places right
            rest = seq[:at] + seq[at + 3:]
            return rest[:at + 5] + seq[at:at + 3] + rest[at + 5:]

        out = move(words[:22], 4) + move(words[22:], 8)
        got = ter_align(T(" ".join(words)), T(" ".join(out)))
        assert got == EditBreakdown(
            insertions=0, deletions=0, substitutions=0, shifts=2,
            matches=44, num_errors=2, normalized_score=2 / 44)

    def test_closed_form_equals_the_backtrace_at_the_lower_bound(self):
        # At the multiset lower bound every optimal alignment has the same
        # counts, so the closed form must equal _decompose's backtrace.
        rng = random.Random(2001)
        at_bound = 0
        for _ in range(3000):
            alphabet = "abcdef"[:rng.randint(1, 6)]
            src = [rng.choice(alphabet) for _ in range(rng.randint(1, 12))]
            out = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
            if (lev_oracle(src, out)
                    != mtmetrics._multiset_lower_bound(src, out)):
                continue
            at_bound += 1
            got = ter_align(T(" ".join(src)), T(" ".join(out)))
            vocab = {}
            ids = [tuple(vocab.setdefault(w, len(vocab)) for w in side)
                   for side in (src, out)]
            assert ((got.insertions, got.deletions, got.substitutions,
                     got.matches, got.shifts)
                    == (*mtmetrics._decompose(*ids), 0)), (src, out)
        assert at_bound >= 1000

    @staticmethod
    def count_calls(monkeypatch):
        calls = Counter()
        for name in ("_prefix_rows", "_plan_shifts", "_exact_refine",
                     "_decompose", "_swap_distances"):
            def counted(*args, _name=name, _f=getattr(mtmetrics, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(mtmetrics, name, counted)
        return calls

    def test_no_table_and_no_search_at_the_lower_bound(self, monkeypatch,
                                                       bench):
        pairs = _workload_pairs("qats-lexical", bench)
        calls = self.count_calls(monkeypatch)
        for src, out in pairs:
            assert ter_align(src, out).shifts == 0
        assert len(pairs) == 631 and not calls

    def test_shifted_pairs_take_the_search_path(self, monkeypatch, bench):
        # 42 of the 631 seed-1 qats-reorder pairs are above the bound, and
        # each gets one search; every shifted output ends at the bound, so
        # no backtrace runs, and the only rows built from the empty row are
        # the prefix and suffix rows of each swap scoring
        pairs = _workload_pairs("qats-reorder", bench)
        calls = self.count_calls(monkeypatch)
        shifted = sum(ter_align(src, out).shifts > 0 for src, out in pairs)
        assert shifted == 42
        assert calls["_plan_shifts"] == 42
        assert calls["_decompose"] == 0
        assert calls["_prefix_rows"] == calls["_swap_distances"] > 0

    @pytest.mark.parametrize("insert", [False, True])
    def test_short_sets_of_the_cli_flow_reach_the_exact_search(
            self, insert, tmp_path, monkeypatch, bench):
        # No workload pair at seeds 1-3 reaches _exact_refine or
        # _decompose, so in tools/cli_flow.py's artifact comparison only
        # its two short sets, reordered and inserting, cover them
        paths = bench.cli_flow.write_short_set(tmp_path, insert)
        calls = self.count_calls(monkeypatch)
        for split in ("train", "test"):
            data = qats_io.load_dataset(paths[split], split)
            for pair in qats_io.to_pairs(data):
                ter_align(pair.source, pair.output)
        assert calls["_exact_refine"] and calls["_decompose"]

    @pytest.mark.parametrize("src, out, want", [
        # no move helps: the output is left as it is, 2 above the bound 0
        ("a b c", "c b a", (0, 0, 2, 0, 1)),
        # one shift gives "d b b d a", still 1 above the bound 1
        ("a b b d c", "b d a d b", (0, 0, 2, 1, 3)),
        # one shift, then 2 above the bound 0: the total 3 is optimal, yet
        # above min(edit distance 5, 1 + best one-move distance 2,
        # 2 + bound 0) = 2, so that lower bound cannot prove it
        ("a c b e d d e", "d e b d a c e", (0, 0, 2, 1, 5)),
    ])
    def test_output_still_above_the_bound_is_backtraced(self, monkeypatch,
                                                        src, out, want):
        calls = self.count_calls(monkeypatch)
        got = ter_align(T(src), T(out))
        assert (got.insertions, got.deletions, got.substitutions,
                got.shifts, got.matches) == want
        assert got.num_errors == ter_oracle(src.split(), out.split())
        assert calls["_plan_shifts"] == calls["_decompose"] == 1

    @pytest.mark.parametrize("alphabet", ["ab", "abc", "abcdef"])
    def test_matches_exhaustive_shift_oracle(self, alphabet):
        rng = random.Random(20240 + len(alphabet))
        for _ in range(60):
            src = [rng.choice(alphabet) for _ in range(rng.randint(1, 6))]
            out = [rng.choice(alphabet) for _ in range(rng.randint(0, 6))]
            got = ter_align(T(" ".join(src)), T(" ".join(out)))
            assert got.num_errors == ter_oracle(src, out), (src, out)
