"""MT-style comparison metrics, used reference-lessly between a source
sentence and a simplification system output.

The output plays the role of the candidate/hypothesis and the source the
role of the single reference. All metrics operate on the flattened word
token sequence; sentence boundaries only constrain n-gram extraction.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, insort
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, combinations
from typing import NamedTuple

import numpy as np

from .errors import sum_left
from .textproc import TokenizedText, porter_stem

__all__ = [
    "BleuConfig",
    "EditBreakdown",
    "bleu",
    "bleu_counts",
    "bleu_from_counts",
    "rouge",
    "meteor",
    "SearchBudgetWarning",
    "ter_align",
    "SMOOTHING_METHODS",
]

SMOOTHING_METHODS = ("none", "method7")

METHOD4_K = 5.0  # length scaling of method 7's zero-precision decay

# METEOR constants of Banerjee & Lavie (2005)
METEOR_ALPHA = 0.9  # recall/precision mix: F = PR / (aP + (1-a)R)
METEOR_GAMMA = 0.5  # fragmentation penalty gamma * (chunks / matches)^beta
METEOR_BETA = 3.0
NODE_BUDGET = 250_000  # search nodes of the exact chunk count (see _align)


@dataclass(frozen=True)
class BleuConfig:
    max_order: int = 4
    smoothing: str = "none"

    def __post_init__(self):
        if self.max_order not in (1, 2, 3, 4):
            raise ValueError(f"max_order must be in 1..4, got {self.max_order}")
        if self.smoothing not in SMOOTHING_METHODS:
            raise ValueError(f"unknown smoothing {self.smoothing!r}")


DEFAULT_BLEU = BleuConfig()


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

# Orders bleu_counts covers: up to the largest max_order (_all_ngrams
# spells them out).
_COUNT_ORDERS = 4


def bleu_counts(source: TokenizedText,
                output: TokenizedText) -> tuple[tuple[int, int], ...]:
    """Clipped n-gram matches and candidate n-gram total for orders 1..4.

    Entry n - 1 is (matches, total) for order n: the output's order-n
    n-grams, each counted at most as often as it occurs in the source, and
    how many order-n n-grams the output has. All orders are counted in one
    pass over each sentence.
    """
    in_ref = _all_ngrams(source).get
    matches = [0] * _COUNT_ORDERS
    for gram, count in _all_ngrams(output).items():
        if clip := in_ref(gram):
            matches[len(gram) - 1] += count if count < clip else clip
    totals = [0] * _COUNT_ORDERS
    for sent in output.sentences:
        for n in range(min(len(sent), _COUNT_ORDERS)):
            totals[n] += len(sent) - n
    return tuple(zip(matches, totals))


def _all_ngrams(text: TokenizedText) -> Counter:
    """Multiset of the text's n-grams of orders 1..4 within sentences,
    each a tuple of its words, counted in one update per sentence."""
    counts: Counter = Counter()
    for sent in text.sentences:
        s1, s2, s3 = sent[1:], sent[2:], sent[3:]
        counts.update(chain(zip(sent), zip(sent, s1), zip(sent, s1, s2),
                            zip(sent, s1, s2, s3)))
    return counts


def _smooth(raw: list[tuple[int, int]], hyp_len: int) -> list[float]:
    """Smoothing method 7 of Chen & Cherry (2014): method 4's decay for
    zero precisions, scaled down for short candidates, then each precision
    averaged with its neighbours.

    Only called when at least one precision is zero; callers short-circuit
    otherwise so that smoothing never changes an all-nonzero score.
    """
    p = [num / den for num, den in raw]
    inc = 1
    for i, (num, den) in enumerate(raw):
        if num == 0 and hyp_len > 1:
            p[i] = (math.log(hyp_len) / (2 ** inc * METHOD4_K)) / den
            inc += 1
    # every average is positive, so no precision returned is zero: the
    # first takes prev >= 1, each later one the average before it
    prev = p[0] + 1.0
    for i in range(len(p)):
        # smoothing runs only if an order has no matches; the next has none
        nxt = p[i + 1] if i + 1 < len(p) else 0.0
        p[i] = (prev + p[i] + nxt) / 3.0
        prev = p[i]
    return [min(x, 1.0) for x in p]


def bleu(source: TokenizedText, output: TokenizedText,
         cfg: BleuConfig = DEFAULT_BLEU) -> float:
    """Sentence BLEU of the output against the source as single reference.

    Geometric mean of modified n-gram precisions up to cfg.max_order,
    restricted to orders for which the output has at least one n-gram,
    times the brevity penalty exp(min(0, 1 - |source| / |output|)).
    Smoothing only kicks in when some precision is zero, so method 7
    agrees with the unsmoothed score on inputs with all-positive matches.
    """
    return bleu_from_counts(bleu_counts(source, output), source.word_count,
                            output.word_count, (cfg,))[0]


def bleu_from_counts(counts: Sequence[tuple[int, int]], src_len: int,
                     out_len: int, cfgs: Sequence[BleuConfig]) -> list[float]:
    """BLEU under each of cfgs, from bleu_counts' (matches, total) per
    order and the word counts of source and output; see bleu. The
    precisions, their logs and the brevity penalty are computed once for
    all of cfgs, and method 7 only for a config whose orders hold a zero
    precision."""
    if src_len == 0:
        raise ValueError("bleu: source must contain at least one word token")
    if out_len == 0:
        return [0.0] * len(cfgs)

    # the orders with n-grams are 1..len(raw), as an order-n n-gram holds
    # one of each lower order; logs covers those up to the first zero
    raw = [c for c in counts if c[1] > 0]
    logs = []
    for num, den in raw:
        if not num:
            break
        logs.append(math.log(num / den))
    brevity = math.exp(min(0.0, 1.0 - src_len / out_len))
    sums = list(accumulate(logs, initial=0.0))  # left to right, as sum_left

    scores = []
    for cfg in cfgs:
        k = min(cfg.max_order, len(raw))
        if k <= len(logs):
            scores.append(brevity * math.exp(sums[k] / k))
        elif cfg.smoothing == "none":
            scores.append(0.0)
        else:
            precisions = _smooth(raw[:k], out_len)
            log_mean = sum_left(math.log(x) for x in precisions) / k
            scores.append(brevity * math.exp(log_mean))
    return scores


# ---------------------------------------------------------------------------
# ROUGE-L
# ---------------------------------------------------------------------------

def _position_masks(a: Sequence) -> dict:
    """{item: int with bit i set where a[i] is the item}: the match masks
    of the bit-parallel kernels, `_lcs_length` (ROUGE-L) and `_columns`
    (TER)."""
    masks: dict = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | 1 << i
    return masks


def _lcs_length(a: list[str], b: list[str]) -> int:
    """Bit-parallel LCS length (Allison & Dix 1986; Hyyrö 2004). After
    each word of b, bit i of v is 0 exactly when a[:i + 1] has a longer
    LCS with the words read so far than a[:i] has, so the LCS length is
    the number of zero bits among the low len(a)."""
    masks = _position_masks(a)
    full = (1 << len(a)) - 1
    v = full
    for y in b:
        u = v & masks.get(y, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def rouge(source: TokenizedText, output: TokenizedText) -> float:
    """Sentence-level ROUGE-L F1 between output and source word tokens."""
    ref = source.words
    cand = output.words
    lcs = _lcs_length(ref, cand)  # 0 when either side is empty
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    return 2 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# METEOR
# ---------------------------------------------------------------------------

class SearchBudgetWarning(RuntimeWarning):
    """METEOR's chunk search stopped at NODE_BUDGET, so its chunk count
    is that of the best alignment found, an upper bound."""


def _quotas(c_cnt: Counter, r_cnt: Counter
            ) -> tuple[dict[str, str], dict[str, int], dict[str, int]]:
    """(stem_of, exact, stem) from the word counts of cand and ref: the
    stem class of every word of either text, each word's maximal number
    of exact matches, and each stem class's maximal number of stem
    matches among the occurrences the exact stage leaves over. Only
    positive quotas are kept."""
    stem_of = {w: porter_stem(w) for w in c_cnt.keys() | r_cnt.keys()}
    exact: dict[str, int] = {}
    c_left: dict[str, int] = {}
    for w, n in c_cnt.items():
        k = min(n, r_cnt.get(w, 0))
        if k:
            exact[w] = k
        if n > k:
            s = stem_of[w]
            c_left[s] = c_left.get(s, 0) + n - k
    r_left: dict[str, int] = {}
    for w, n in r_cnt.items():
        n -= exact.get(w, 0)
        if n:
            s = stem_of[w]
            r_left[s] = r_left.get(s, 0) + n
    stem = {s: min(n, r_left[s]) for s, n in c_left.items() if s in r_left}
    return stem_of, exact, stem


def _segments(cand: list[str], ref: list[str], stem_of: dict[str, str],
              exact: dict[str, int], stem: dict[str, int]
              ) -> list[tuple[int, int]]:
    """(start, length) of each segment of cand, in order: a maximal run of
    matchable positions in which each adjacent pair's stem classes are
    also adjacent somewhere in ref. A chunk never crosses a segment."""
    ref_cls = [stem_of[w] for w in ref]
    adjacent = set(zip(ref_cls, ref_cls[1:]))
    segments = []
    start = -1  # start of the open segment, or -1
    prev = None  # stem class of the previous word
    for i, w in enumerate(cand):
        s = stem_of[w]
        matchable = w in exact or s in stem
        if start >= 0 and not (matchable and (prev, s) in adjacent):
            segments.append((start, i - start))
            start = -1
        if matchable and start < 0:
            start = i
        prev = s
    if start >= 0:
        segments.append((start, len(cand) - start))
    return segments


class _Tables(NamedTuple):
    """What _align computes once for a pair with matches; the greedy
    alignment and the search both read it."""

    stem_of: dict[str, str]
    exact: dict[str, int]
    stem: dict[str, int]
    ref_count: Counter
    matches: int
    segments: list[tuple[int, int]]
    root: int  # fewest segments, longest first, that hold the matches
    at_word: dict[str, list[int]]  # ref positions, ascending
    at_stem: dict[str, list[int]]  # the same per stem class, if stem


def _tables(cand: list[str], ref: list[str]) -> _Tables | None:
    """The pair's quotas, segments, root bound and ref position tables,
    or None when nothing matches."""
    ref_count = Counter(ref)
    stem_of, exact, stem = _quotas(Counter(cand), ref_count)
    matches = sum(exact.values()) + sum(stem.values())
    if matches == 0:
        return None
    segments = _segments(cand, ref, stem_of, exact, stem)
    lengths = sorted((n for _, n in segments), reverse=True)
    root = bisect_left(list(accumulate(lengths)), matches) + 1
    at_word: dict[str, list[int]] = {}
    for j, w in enumerate(ref):
        at_word.setdefault(w, []).append(j)
    at_stem: dict[str, list[int]] = {}
    if stem:
        for j, w in enumerate(ref):
            at_stem.setdefault(stem_of[w], []).append(j)
    return _Tables(stem_of, exact, stem, ref_count, matches, segments, root,
                   at_word, at_stem)


def _chunk_bound(m: int, segments: list[tuple[int, int]]
                 ) -> Callable[[int, int, int], int]:
    """fewest_new_chunks(i, remaining, last_j): a lower bound on the
    chunks an alignment must still open to place `remaining` matches in
    cand[i:] (m words, split into segments), after cand[i - 1] was
    matched to ref[last_j] (last_j < 0: it was not).

    The bound is the fewest segments of cand[i:], longest first, that can
    hold `remaining` matches; the segment at i costs nothing when the
    open chunk may run on into it.
    """
    # head[i]: the matchable positions from i to the end of i's segment;
    # after[i]: cumulative lengths of the segments that start after i,
    # longest first
    head = [0] * m
    after: list[list[int]] = [[]] * m
    lengths: list[int] = []  # negated, ascending
    cums: list[int] = []
    end = m  # start of the segment after this one
    for start, n in reversed(segments):
        head[start:start + n] = range(n, 0, -1)
        after[start:end] = [cums] * (end - start)
        insort(lengths, -n)
        cums = [-x for x in accumulate(lengths)]
        end = start
    after[:end] = [cums] * end

    def fewest_new_chunks(i, remaining, last_j):
        h, later = head[i], after[i]
        rest = remaining - h  # left for the later segments if i's is full
        if last_j >= 0 and head[i - 1] > 1:
            return 0 if rest <= 0 else bisect_left(later, rest) + 1
        skip = bisect_left(later, remaining) + 1
        if h == 0:
            return skip
        return min(skip, 1 if rest <= 0 else bisect_left(later, rest) + 2)

    return fewest_new_chunks


def _continuation_first(positions: list[int], j: int) -> list[int]:
    """The ascending positions with j, one of them, moved to the front."""
    return [j, *(p for p in positions if p != j)]


def _align(cand: list[str], ref: list[str]) -> tuple[int, int, bool]:
    """(matches, chunks, exhaustive) of METEOR's unigram alignment of
    cand to ref.

    Every word gets exactly its maximal number of exact matches (stage
    priority), and every stem class exactly the maximal number of stem
    matches among the occurrences left over (_quotas). Among those
    alignments the fewest chunks are wanted. A greedy alignment that
    meets the root bound has them, whatever NODE_BUDGET is
    (_greedy_meets_root); every other pair runs _search.

    The chunk count is exact when ``exhaustive`` is true. Otherwise a
    node was cut by NODE_BUDGET (expanded search nodes), and the count
    is that of the best alignment found, an upper bound.
    """
    t = _tables(cand, ref)
    if t is None:
        return 0, 0, True
    if _greedy_meets_root(cand, ref, t):
        return t.matches, t.root, True
    return _search(cand, ref, t)


def _greedy_meets_root(cand: list[str], ref: list[str], t: _Tables) -> bool:
    """Whether a greedy alignment places all t.matches matches in t.root
    chunks, and so is optimal. At each cand word it takes the exact match,
    the continuation ref[last_j + 1] first, else the lowest free position;
    else the stem match by the same rule, to a ref word with more free
    occurrences than exact matches still owed to it; else none. Each match
    lowers a positive quota, so with all placed every quota is met and the
    alignment is one of those _align ranges over; a chunk never crosses a
    segment, so each of those has at least t.root chunks."""
    (stem_of, exact, stem, ref_count, remaining, _, root, at_word,
     at_stem) = t
    used = [False] * len(ref)
    rem_exact, rem_stem, free = dict(exact), dict(stem), dict(ref_count)
    ref_after = [*ref[1:], None, None]  # as in _search
    last_j, chunks = -2, 0
    for w in cand:
        j = last_j + 1  # the continuation of the open chunk
        if rem_exact.get(w, 0):
            # free[w] >= rem_exact[w] > 0, so a position is free
            if ref_after[last_j] != w or used[j]:
                j = next(k for k in at_word[w] if not used[k])
            rem_exact[w] -= 1
        elif rem_stem.get(s := stem_of[w], 0):
            order = at_stem[s]
            nxt = ref_after[last_j]
            if nxt is not None and stem_of[nxt] == s:
                order = (j, *order)
            for j in order:
                rw = ref[j]
                if (not used[j] and rw != w
                        and free[rw] > rem_exact.get(rw, 0)):
                    break
            else:
                last_j = -2
                continue
            rem_stem[s] -= 1
        else:
            last_j = -2
            continue
        if j != last_j + 1:
            chunks += 1
            if chunks > root:
                return False
        used[j] = True
        free[ref[j]] -= 1
        remaining -= 1
        if not remaining:
            return True  # chunks == root: no alignment has fewer
        last_j = j
    return False


def _search(cand: list[str], ref: list[str], t: _Tables
            ) -> tuple[int, int, bool]:
    """_align's result by a depth-first search over cand positions, with
    quota feasibility pruning and branch-and-bound on _chunk_bound. Each
    node offers the match that continues the open chunk first, so the
    first alignments found follow the output's own runs, reordered or
    not. It stops as soon as it reaches the root bound. It runs from an
    explicit stack of child generators, not by recursion, so it does not
    depend on the depth of the caller's stack and a long cand cannot
    exhaust it.
    """
    (stem_of, exact, stem, ref_count, matches, segments, root, at_word,
     at_stem) = t
    m = len(cand)
    fewest_new_chunks = _chunk_bound(m, segments)
    # occurrences of cand[i]'s word in cand[i:]
    word_after = [0] * m
    seen: dict[str, int] = {}
    for i in range(m - 1, -1, -1):
        w = cand[i]
        word_after[i] = seen[w] = seen.get(w, 0) + 1
    if stem:  # the same for stem classes, and their exactly matched words
        stem_after = [0] * m
        seen = {}
        for i in range(m - 1, -1, -1):
            s = stem_of[cand[i]]
            stem_after[i] = seen[s] = seen.get(s, 0) + 1
        in_class: dict[str, list[str]] = {}
        for w in exact:
            in_class.setdefault(stem_of[w], []).append(w)

    used = [False] * len(ref)
    rem_exact, rem_stem, free = dict(exact), dict(stem), dict(ref_count)

    # ref_after[last_j]: the ref word that continues the open chunk, or
    # None (last_j is -2 when there is no open chunk)
    ref_after = [*ref[1:], None, None]

    def children(i, remaining, last_j, chunks):
        # each stage offers ref[last_j + 1] first when it matches, then
        # the other positions in ascending order
        cont = ref_after[last_j]
        w = cand[i]
        need = rem_exact.get(w, 0)
        if need > 0:  # exact matches first
            order = at_word[w]
            if cont == w and order[0] != last_j + 1:
                order = _continuation_first(order, last_j + 1)
            for j in order:
                if not used[j]:
                    used[j] = True
                    free[w] -= 1
                    rem_exact[w] -= 1
                    yield (i + 1, remaining - 1, j,
                           chunks if j == last_j + 1 else chunks + 1)
                    rem_exact[w] += 1
                    free[w] += 1
                    used[j] = False
        # a stem match or no match at i leaves w's exact quota to cand[i+1:]
        later = need < word_after[i]
        if stem:
            s = stem_of[w]
            if later and rem_stem.get(s, 0) > 0:
                order = at_stem[s]
                if (cont is not None and stem_of[cont] == s
                        and order[0] != last_j + 1):
                    order = _continuation_first(order, last_j + 1)
                for j in order:
                    rw = ref[j]
                    # keep enough ref occurrences of rw for its exact quota
                    if (not used[j] and rw != w
                            and free[rw] > rem_exact.get(rw, 0)):
                        used[j] = True
                        free[rw] -= 1
                        rem_stem[s] -= 1
                        yield (i + 1, remaining - 1, j,
                               chunks if j == last_j + 1 else chunks + 1)
                        rem_stem[s] += 1
                        free[rw] += 1
                        used[j] = False
            # no match at i also leaves the quotas of w's class to cand[i+1:]
            later = later and rem_stem.get(s, 0) + sum(
                rem_exact[v] for v in in_class.get(s, ())) < stem_after[i]
        if later:
            yield i + 1, remaining, -2, chunks

    best, nodes, cut = matches, 0, False  # one chunk per match is feasible
    stack = [iter([(0, matches, -2, 0)])]
    while stack and best > root:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        i, remaining, last_j, chunks = node
        if remaining == 0:
            best = min(best, chunks)
            continue
        if (m - i < remaining
                or chunks + fewest_new_chunks(i, remaining, last_j) >= best):
            continue
        if nodes > NODE_BUDGET:
            cut = True
            continue
        nodes += 1
        stack.append(children(i, remaining, last_j, chunks))
    return matches, best, best == root or not cut


def meteor(source: TokenizedText, output: TokenizedText) -> float:
    """METEOR score of the output against the source as reference.

    Unigram alignment maximizes the match count with exact matches taking
    priority over stem matches, then minimizes the number of chunks; the
    final score is the recall-weighted F-mean scaled by the fragmentation
    penalty 1 - gamma * (chunks / matches) ** beta. The chunk count is
    exact unless a SearchBudgetWarning is issued: then the search stopped
    at NODE_BUDGET nodes, the count is that of the best alignment found,
    an upper bound, and the score can be lower than the exact one. The
    search does not recurse, so it works the same at any stack depth.
    """
    ref = source.words
    cand = output.words
    if not ref or not cand:
        return 0.0

    matches, chunks, exhaustive = _align(cand, ref)
    if not exhaustive:
        warnings.warn(SearchBudgetWarning(
            f"METEOR chunk search stopped at NODE_BUDGET ({NODE_BUDGET} "
            f"nodes) on a {len(cand)}-word output; its chunk count "
            f"{chunks} is an upper bound"), stacklevel=2)
    if matches == 0:
        return 0.0

    precision = matches / len(cand)
    recall = matches / len(ref)
    fmean = (precision * recall
             / (METEOR_ALPHA * precision + (1 - METEOR_ALPHA) * recall))
    penalty = METEOR_GAMMA * (chunks / matches) ** METEOR_BETA
    return fmean * (1.0 - penalty)


# ---------------------------------------------------------------------------
# TER with block shifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EditBreakdown:
    """TER-style alignment counts between a source and an output.

    Edits transform the source into the (shift-corrected) output, so
    deletions count dropped source words and insertions count added
    output words; num_errors = insertions + deletions + substitutions +
    shifts, normalized by the source length.
    """

    insertions: int
    deletions: int
    substitutions: int
    shifts: int
    matches: int
    num_errors: int
    normalized_score: float


def _columns(a: Sequence, b: Sequence) -> list[tuple[int, int]]:
    """The columns j = 0..len(b) of the edit-distance table t[i][j], the
    distance between a[:i] and b[:j], bit-parallel (Myers 1999, in
    Hyyrö's 2001 form for the global distance). Column j is the pair
    (pv, mv) of bit vectors of its vertical differences t[i][j] - t[i -
    1][j]: bit i - 1 of pv is set where that is +1 and of mv where it is
    -1, so t[i][j] = j + popcount(pv & low) - popcount(mv & low) with low
    the i lowest bits. Each item of b updates both with a fixed dozen int
    operations on len(a)-bit ints."""
    peq = _position_masks(a)
    full = (1 << len(a)) - 1
    pv, mv = full, 0
    columns = [(pv, mv)]
    for y in b:
        eq = peq.get(y, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        ph = ph << 1 | 1  # row 0 grows by one per item of b
        mh <<= 1
        pv = (mh | ~(xv | ph)) & full
        mv = ph & xv
        columns.append((pv, mv))
    return columns


def _levenshtein(a: Sequence, b: Sequence) -> int:
    """Edit distance between a and b: the bottom cell of `_columns`'
    last column."""
    pv, mv = _columns(a, b)[-1]
    return len(b) + pv.bit_count() - mv.bit_count()


def _multiset_lower_bound(src: Sequence, out: Sequence) -> int:
    """max(|src|, |out|) minus the multiset overlap of the two: no
    alignment of any rearrangement of out costs less."""
    left = Counter(src)  # the items of src that out has not matched
    unmatched = 0
    for t in out:
        c = left.get(t, 0)
        if c:
            left[t] = c - 1
        else:
            unmatched += 1
    overlap = len(out) - unmatched
    return max(len(src) - overlap, unmatched)


# Block-shift search over the output sequence. `ter_align` runs it only
# for an output whose edit distance is above the multiset lower bound; at
# the bound no shift can help.
EXACT_LIMIT = 7  # longest output whose greedy plan is refined exactly
CHUNK_CELLS = 1 << 22  # forward and backward row cells a chunk stores


def _plan_shifts(src: tuple[int, ...], out: tuple[int, ...], ed: int,
                 lb: int) -> tuple[int, int, tuple[int, ...]]:
    """Return (shifts, remaining_edit_distance, final_sequence), given
    the edit distance `ed` of `out` itself and its
    `_multiset_lower_bound` `lb`.

    Every output gets the greedy search of TERCOM: repeatedly apply the
    first block move (any contiguous block to any position) that most
    reduces the word edit distance to the source, while some move
    strictly reduces it and the distance is above the multiset lower
    bound (no rearrangement can ever do better). The total error count
    therefore never exceeds the plain edit distance. Edit distance with
    block moves is NP-complete, so this is an upper bound.

    Greedy can miss optima that need a tied or non-improving intermediate
    move, so an output of at most EXACT_LIMIT tokens is then refined by
    `_exact_refine`, seeded and bounded by the greedy result, which finds
    the exact optimum.
    """
    shifts, final = 0, out
    while ed > lb:
        delta, moved = _best_move(src, final, ed)
        if moved is None:
            break
        shifts, ed, final = shifts + 1, ed - delta, moved
    if len(out) <= EXACT_LIMIT:
        return _exact_refine(src, out, lb, (shifts, ed, final))
    return shifts, ed, final


def _exact_refine(src, out, lb, greedy):
    """Level-order search over move sequences, seeded and bounded by the
    greedy solution, scoring each permutation with the bit-parallel
    `_levenshtein`. A block move is a swap (a, b, c) of two adjacent
    segments, each enumerated once per state. Every move costs one, so
    level k holds the permutations of `out` first reached in k moves;
    each level is scored in sorted order, and each of the at most
    EXACT_LIMIT! permutations once. Every permutation of `out` is at
    least the multiset lower bound `lb` from `src`, so a child of a
    level-k state totals at least k + 1 + lb: once that cannot beat the
    best total, the state is not expanded."""
    best_total = greedy[0] + greedy[1]
    best = greedy
    moves, level, seen = 0, [out], {out}
    while level:
        following = []
        for state in sorted(level):
            ed = _levenshtein(src, state)
            if moves + ed < best_total:
                best_total = moves + ed
                best = (moves, ed, state)
            if moves + 1 + lb >= best_total:
                continue
            for a, b, c in combinations(range(len(state) + 1), 3):
                cand = state[:a] + state[b:c] + state[a:b] + state[c:]
                if cand not in seen:
                    seen.add(cand)
                    following.append(cand)
        moves, level = moves + 1, following
    return best


def _best_move(src: tuple[int, ...], out: tuple[int, ...], ed: int):
    """(reduction, moved sequence) of the first block move with the
    largest edit-distance reduction, or (0, None) if no move reduces
    the distance.

    Every block move of `out` is a swap (a, b, c), out[:a] + out[b:c] +
    out[a:b] + out[c:], and `_swap_distances` scores them all. Among the
    tied best swaps, the first in TERCOM's move order wins (`_tercom_key`).
    """
    a, b, c, d = _swap_distances(src, out)
    low = int(d.min())
    if low >= ed:
        return 0, None
    tied = np.flatnonzero(d == low)
    a, b, c = min(zip(a[tied].tolist(), b[tied].tolist(), c[tied].tolist()),
                  key=_tercom_key)
    return ed - low, out[:a] + out[b:c] + out[a:b] + out[c:]


def _tercom_key(swap: tuple[int, int, int]) -> tuple[int, int, int]:
    """Rank of swap (a, b, c) in TERCOM's move order: block length
    descending, start ascending, insertion point ascending (Snover et
    al., AMTA 2006). The swap is the move of out[b:c] to a and the move
    of out[a:b] to insertion point c - (b - a) of the remaining tokens;
    it ranks as the first of the two, so the longer block wins, and on
    equal lengths the earlier start."""
    a, b, c = swap
    return min((b - c, b, a), (a - b, a, c - (b - a)))


def _swap_distances(src: tuple[int, ...], out: tuple[int, ...]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Edit distances of every adjacent-segment swap of `out`.

    Returns flat int arrays (a, b, c, d), one entry per swap 0 <= a < b <
    c <= n (all four empty when n < 2), where d is the edit distance
    between the source and out[:a] + out[b:c] + out[a:b] + out[c:]. The
    swap splits into a forward part, the prefix row of out[:a] extended
    through out[b:c], and a backward part, the suffix row of out[c:]
    (reversed-source orientation) extended leftwards through out[a:b];
    the distance is the minimum over source split points of their sum.

    Each greedy step (`_best_move`) scores every block move of an
    n-token output against an m-token source, and every move is one of
    these ~n^3/6 swaps, so all of them are scored in one lockstep DP of
    `_dp_step` rows. The prefix and suffix rows of `out` are two lanes of
    `_prefix_rows`, through `out` and through its reversal. A forward
    lane (a, b) starts from the prefix row of out[:a] and steps through
    out[b], out[b + 1], ...; a backward lane (b, c) starts from the
    suffix row of out[c:] and steps through out[b - 1], out[b - 2], ....
    Both kinds are ordered by b descending and stacked as [forward;
    backward], so the lanes still live at step k (forward b <= n - k,
    backward b >= k) are one contiguous slice, and each of the at most
    n - 1 steps is one gather of `_step_table` rows and one `_dp_step`
    into a preallocated row array. The b values are split into chunks of
    about CHUNK_CELLS stored cells (`_b_chunks`), and each chunk combines
    its swaps once: the forward row of lane (a, b) at step c - b plus the
    reversed backward row of lane (b, c) at step b - a, minimised over
    the row, plus m.
    """
    n, m = len(out), len(src)
    if n < 2:
        return tuple(np.zeros(0, dtype=np.intp) for _ in range(4))
    table = _step_table(src, out)
    # a lane through out and one through its reversal (table rows 2n - 1
    # down to n): ends[a] is the prefix row of out[:a], ends[n + 1 + c]
    # the suffix row of out[c:]
    ends = _prefix_rows(table, np.c_[:n, 2 * n - 1:n - 1:-1])
    ends = np.concatenate((ends[:, 0], ends[::-1, 1]))
    fb, fa = np.tril_indices(n, -1)        # (b, a), a < b, b ascending
    gb, gc = np.triu_indices(n + 1, 1)     # (b, c), b < c, b ascending
    swaps = []
    for lo, hi in _b_chunks(n, m):
        f0, f1 = lo * (lo - 1) // 2, hi * (hi - 1) // 2
        g0, g1 = lo * n - f0, hi * n - f1
        cfb, cfa, cgb, cgc = fb[f0:f1], fa[f0:f1], gb[g0:g1], gc[g0:g1]
        nf = f1 - f0
        # step k's live lanes are start[k] .. start[k] + size[k] - 1, and
        # lane l's row at step k is rows[off[k] + l - start[k]]
        steps = max(n - lo, hi - 1)
        ks = np.arange(steps + 1)
        live_f = np.searchsorted(cfb, n - ks, "right")
        start = nf - live_f
        size = live_f + len(cgb) - np.searchsorted(cgb, ks)
        size[0] = 0
        off = np.concatenate(([0], np.cumsum(size)))
        # the table row of each stored row's token: out[b + k - 1] for a
        # forward lane, out[b - k] for a backward one
        base = np.concatenate((cfb[::-1] - 1, n + cgb[::-1]))
        sign = np.repeat([1, -1], [nf, len(cgb)])
        lane = np.arange(off[-1]) - np.repeat(off[:-1] - start, size)
        token = base[lane] + sign[lane] * np.repeat(ks, size)
        del lane  # keep the index arrays out of the rows' peak
        rows = np.empty((off[-1], m + 1), table.dtype)
        prev = ends[np.concatenate((cfa[::-1], n + 1 + cgc[::-1]))]
        first = 0  # the lane of prev's first row
        starts, offs = start.tolist(), off.tolist()
        for k in range(1, steps + 1):
            lo_row, hi_row = offs[k], offs[k + 1]
            u = prev[starts[k] - first:][:hi_row - lo_row]
            new = rows[lo_row:hi_row]
            _dp_step(u, table.take(token[lo_row:hi_row], axis=0), new)
            prev, first = new, starts[k]
        del token
        # the swaps in order of c - b, then b, then a; r is the rank of
        # (a, b) in (cfb, cfa)
        counts = live_f[1:n - lo + 1]  # forward lanes live at c - b = s
        s = np.repeat(np.arange(1, n - lo + 1), counts)
        r = np.arange(len(s)) - np.repeat(np.cumsum(counts) - counts, counts)
        a, b = cfa[r], cfb[r]
        c = b + s
        t = b - a
        forward = nf - 1 - r  # the lanes of (a, b) and of (b, c)
        backward = nf + g1 - 1 - (b * n - b * (b - 1) // 2 + c - b - 1)
        both = rows.take(off[s] + forward - start[s], axis=0)
        both += rows.take(off[t] + backward - start[t], axis=0)[:, ::-1]
        d = both.min(axis=1).astype(np.intp)
        d += m
        swaps.append((a, b, c, d))
    return tuple(map(np.concatenate, zip(*swaps)))


def _step_table(src: tuple[int, ...], out: tuple[int, ...]) -> np.ndarray:
    """`_dp_step`'s diagonal costs: row t is (src != out[t]) - 1, row n +
    t the same against the reversed source. Row values D[q] - q and their
    sums lie in [-2 max(n, m), 2 max(n, m)], so the dtype is int8 when
    max(n, m) <= 63, int16 up to 16 383 and int32 above."""
    top = max(len(out), len(src))
    dtype = np.int8 if top <= 63 else np.int16 if top <= 16383 else np.int32
    mis = np.not_equal.outer(np.asarray(out), np.asarray(src))
    return np.concatenate((mis, mis[:, ::-1])).astype(dtype) - dtype(1)


def _dp_step(u: np.ndarray, diag: np.ndarray, new: np.ndarray) -> None:
    """One token of the unit-cost edit-distance DP in every lane. Rows of
    u hold D[q] - q, D[q] the distance from the lane's tokens so far to
    the first q source tokens; diag (overwritten) holds each lane's next
    `_step_table` row. new gets D'[q] - q = min(D[q] - q + 1, D[q - 1] -
    (q - 1) + diag[q - 1], D'[q - 1] - (q - 1))."""
    np.add(diag, u[:, :-1], out=diag)
    np.add(u, 1, out=new)
    np.minimum(new[:, 1:], diag, out=new[:, 1:])
    np.minimum.accumulate(new, axis=1, out=new)


def _prefix_rows(table: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """rows[k, l]: lane l's `_dp_step` row after k steps from the empty
    row (all zero), through the `table` rows tokens[:k, l]."""
    rows = np.zeros((len(tokens) + 1, tokens.shape[1], table.shape[1] + 1),
                    table.dtype)
    for k, diag in enumerate(table[tokens]):
        _dp_step(rows[k], diag, rows[k + 1])
    return rows


def _b_chunks(n: int, m: int):
    """Split b = 1..n-1 into ranges [lo, hi) whose stored rows stay near
    CHUNK_CELLS: per b, the b forward lanes (a, b) store n - b rows each
    and the n - b backward lanes (b, c) store b rows each, all of m + 1
    cells."""
    lo, cells = 1, 0
    for b in range(1, n):
        cells += 2 * b * (n - b) * (m + 1)
        if cells >= CHUNK_CELLS or b == n - 1:
            yield lo, b + 1
            lo, cells = b + 1, 0


def _decompose(src_ids: tuple[int, ...], out_ids: tuple[int, ...]
               ) -> tuple[int, int, int, int]:
    """Optimal unit-cost alignment counts (insertions, deletions,
    substitutions, matches) transforming source into output, backtraced
    through the `_columns` of the table t[i][j], the distance between
    src_ids[:i] and out_ids[:j]. The backtrace prefers diagonal steps,
    then deletions (bit i - 1 of column j's pv: t[i][j] = t[i - 1][j] +
    1), then insertions, which fixes one canonical decomposition among
    cost-equal alignments."""
    i, j = len(src_ids), len(out_ids)
    columns = _columns(src_ids, out_ids)
    pv, mv = columns[j]
    d = j + pv.bit_count() - mv.bit_count()  # t[i][j], kept along the path
    ins = dels = subs = matches = 0
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            step = 0 if src_ids[i - 1] == out_ids[j - 1] else 1
            pv, mv = columns[j - 1]
            low = (1 << (i - 1)) - 1
            diag = j - 1 + (pv & low).bit_count() - (mv & low).bit_count()
            if d == diag + step:
                matches, subs = matches + 1 - step, subs + step
                i, j, d = i - 1, j - 1, diag
                continue
        if i > 0 and columns[j][0] >> (i - 1) & 1:
            dels, i = dels + 1, i - 1
        else:
            ins, j = ins + 1, j - 1
        d -= 1
    return ins, dels, subs, matches


def ter_align(source: TokenizedText, output: TokenizedText) -> EditBreakdown:
    """TER-style breakdown: block shifts over the output (first-best-move
    greedy, refined exhaustively for outputs of at most EXACT_LIMIT
    tokens; see `_plan_shifts`), then a word-level unit-cost alignment of
    the source against the shifted output, normalized by the source
    length.

    The edit distance comes from the bit-parallel `_levenshtein`. When it
    is above the `_multiset_lower_bound`, `_plan_shifts` plans the shifts
    and returns the distance left. Shifts only permute the output, so
    the bound and both lengths stay the same. At the bound, every
    optimal alignment matches the whole multiset overlap, substitutes the
    rest of the shorter side and inserts or deletes the length
    difference; those counts are returned as they are, with no backtrace.
    Only a (shifted) output still above the bound gets the `_decompose`
    backtrace.
    """
    src_words = source.words
    out_words = output.words
    if not src_words:
        raise ValueError("ter_align: source must contain at least one word")

    ed = _levenshtein(src_words, out_words)
    lb = _multiset_lower_bound(src_words, out_words)
    shifts = 0
    if ed > lb:
        vocab: dict[str, int] = {}
        src_ids = tuple(vocab.setdefault(w, len(vocab)) for w in src_words)
        out_ids = tuple(vocab.setdefault(w, len(vocab)) for w in out_words)
        shifts, ed, final = _plan_shifts(src_ids, out_ids, ed, lb)
    if ed == lb:
        n_src, n_out = len(src_words), len(out_words)
        aligned = min(n_src, n_out)
        matches = max(n_src, n_out) - lb
        ins, dels, subs = n_out - aligned, n_src - aligned, aligned - matches
    else:
        ins, dels, subs, matches = _decompose(src_ids, final)
    num_errors = ins + dels + subs + shifts
    return EditBreakdown(
        insertions=ins,
        deletions=dels,
        substitutions=subs,
        shifts=shifts,
        matches=matches,
        num_errors=num_errors,
        normalized_score=num_errors / len(src_words),
    )
