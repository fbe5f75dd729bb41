"""BLEU / ROUGE / METEOR / TER against hand computations and brute-force
oracles. The oracles are implemented here, independently of the package."""

import heapq
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tseval.mtmetrics import (
    BleuConfig,
    EditBreakdown,
    MeteorConfig,
    SMOOTHING_METHODS,
    bleu,
    meteor,
    rouge,
    ter_align,
)
from tseval.mtmetrics import _ShiftSearch, _edit_distance_ids
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


def lev_oracle(a, b):
    """Plain quadratic edit distance, no vectorization."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


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
                    dist[cand] = _edit_distance_ids(src, cand)
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


def meteor_score_from(exact, total, neg_chunks, n_cand, n_ref,
                      cfg=MeteorConfig()):
    if total == 0:
        return 0.0
    p = total / n_cand
    r = total / n_ref
    fmean = p * r / (cfg.alpha * p + (1 - cfg.alpha) * r)
    penalty = cfg.penalty_gamma * (-neg_chunks / total) ** cfg.penalty_beta
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
        raws = [bleu(src, out, BleuConfig(max_order=4, smoothing=m))
                for m in SMOOTHING_METHODS[1:]]
        for smoothed in raws:
            assert 0.0 <= smoothed <= 1.0
            assert smoothed >= plain - 1e-12
        # when no precision is zero, smoothing must not change the score
        orders = [n for n in range(1, 5)
                  if any(len(s) >= n for s in out.sentences)]
        from tseval.mtmetrics import _raw_precisions
        raw = _raw_precisions(src, out, orders)
        if all(num > 0 for num, _ in raw):
            for smoothed in raws:
                assert smoothed == pytest.approx(plain, abs=1e-12)

    def test_method7_positive_on_partial_match(self):
        got = bleu(T("the cat sat on the mat"), T("the cat naps"),
                   BleuConfig(max_order=4, smoothing="method7"))
        assert 0.0 < got < 1.0

    # Hand-computed smoothing fixtures. src "a b c d", out "a b x" with
    # max_order=3 gives raw precisions p1=2/3, p2=1/2, p3=0/1 and brevity
    # penalty exp(1 - 4/3); each method rewrites the zero p3 differently.
    _SRC = "a b c d"
    _OUT = "a b x"
    _BP = math.exp(1 - 4 / 3)

    def _smoothed(self, method):
        return bleu(T(self._SRC), T(self._OUT),
                    BleuConfig(max_order=3, smoothing=method))

    def test_method1_epsilon_count(self):
        expected = self._BP * ((2 / 3) * (1 / 2) * (0.1 / 1)) ** (1 / 3)
        assert self._smoothed("method1") == pytest.approx(expected, abs=1e-12)

    def test_method2_add_one_above_unigram(self):
        expected = self._BP * ((2 / 3) * (2 / 3) * (1 / 2)) ** (1 / 3)
        assert self._smoothed("method2") == pytest.approx(expected, abs=1e-12)

    def test_method3_geometric_decay(self):
        expected = self._BP * ((2 / 3) * (1 / 2) * (1 / 2)) ** (1 / 3)
        assert self._smoothed("method3") == pytest.approx(expected, abs=1e-12)

    def test_method4_scales_by_candidate_length(self):
        # zero precision becomes (ln 3 / (2 * 5)) / 1
        expected = self._BP * ((2 / 3) * (1 / 2)
                               * (math.log(3) / 10)) ** (1 / 3)
        assert self._smoothed("method4") == pytest.approx(expected, abs=1e-12)

    def test_method5_neighbour_averaging(self):
        # p4 (order max+1) has no candidate 4-grams -> 0; then
        # p1' = (p1+1 + p1 + p2)/3, p2' = (p1' + p2 + p3)/3,
        # p3' = (p2' + p3 + p4)/3, each capped at 1
        p1, p2, p3, p4 = 2 / 3, 1 / 2, 0.0, 0.0
        m1 = ((p1 + 1) + p1 + p2) / 3
        m2 = (m1 + p2 + p3) / 3
        m3 = (m2 + p3 + p4) / 3
        expected = self._BP * (min(m1, 1.0) * m2 * m3) ** (1 / 3)
        assert self._smoothed("method5") == pytest.approx(expected, abs=1e-12)

    def test_method6_interpolated_prior(self):
        # order 3 interpolates with pi0 = p2^2 / p1; numerator 0, alpha 5
        pi0 = (1 / 2) ** 2 / (2 / 3)
        p3 = (0 + 5 * pi0) / (1 + 5)
        expected = self._BP * ((2 / 3) * (1 / 2) * p3) ** (1 / 3)
        assert self._smoothed("method6") == pytest.approx(expected, abs=1e-12)


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
        no_stem = MeteorConfig(match_stages=("exact",))
        with_stem = MeteorConfig(match_stages=("exact", "stem"))
        src, out = T("the cats sat"), T("the cat sat")
        assert meteor(src, out, with_stem) > meteor(src, out, no_stem)

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


# ---------------------------------------------------------------------------
# TER
# ---------------------------------------------------------------------------

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
            monkeypatch.setattr(_ShiftSearch, "CHUNK_CELLS", chunk_cells)
        rng = random.Random(31)
        for _ in range(cases):
            k = rng.randint(2, 6)
            src = tuple(rng.randrange(k) for _ in range(rng.randint(2, 20)))
            out = tuple(rng.randrange(k) for _ in range(rng.randint(2, 20)))
            search = _ShiftSearch(src)
            ed = _edit_distance_ids(search.src, out)
            assert (search._best_moves(out, ed)
                    == best_moves_oracle(search.src, out, ed)), (src, out)

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

    @pytest.mark.parametrize("alphabet", ["ab", "abc", "abcdef"])
    def test_matches_exhaustive_shift_oracle(self, alphabet):
        rng = random.Random(20240 + len(alphabet))
        for _ in range(60):
            src = [rng.choice(alphabet) for _ in range(rng.randint(1, 6))]
            out = [rng.choice(alphabet) for _ in range(rng.randint(0, 6))]
            got = ter_align(T(" ".join(src)), T(" ".join(out)))
            assert got.num_errors == ter_oracle(src, out), (src, out)
