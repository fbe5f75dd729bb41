"""MT-style comparison metrics, used reference-lessly between a source
sentence and a simplification system output.

The output plays the role of the candidate/hypothesis and the source the
role of the single reference. All metrics operate on the flattened word
token sequence; sentence boundaries only constrain n-gram extraction.
"""

from __future__ import annotations

import heapq
import math
import warnings
from bisect import bisect_left, insort
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

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

# Orders bleu_counts covers: up to the largest max_order.
_COUNT_ORDERS = 4


def bleu_counts(source: TokenizedText,
                output: TokenizedText) -> tuple[tuple[int, int], ...]:
    """Clipped n-gram matches and candidate n-gram total for orders 1..4.

    Entry n - 1 is (matches, total) for order n: the output's order-n
    n-grams, each counted at most as often as it occurs in the source, and
    how many order-n n-grams the output has. All orders are counted in one
    pass over each sentence.
    """
    cand = _all_ngrams(output)
    ref = _all_ngrams(source)
    matches = [0] * _COUNT_ORDERS
    for gram, count in (cand & ref).items():
        matches[len(gram) - 1] += count
    totals = [0] * _COUNT_ORDERS
    for sent in output.sentences:
        for n in range(min(len(sent), _COUNT_ORDERS)):
            totals[n] += len(sent) - n
    return tuple(zip(matches, totals))


def _all_ngrams(text: TokenizedText) -> Counter:
    """Multiset of the text's n-grams of orders 1..4 within sentences."""
    counts: Counter = Counter()
    for sent in text.sentences:
        counts.update(sent[i:i + n] for n in range(1, _COUNT_ORDERS + 1)
                      for i in range(len(sent) - n + 1))
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
    p = _average_with_neighbours(p)
    return [min(max(x, 0.0), 1.0) for x in p]


def _average_with_neighbours(p: list[float]) -> list[float]:
    out = list(p)
    prev = p[0] + 1.0
    for i in range(len(out)):
        # smoothing runs only if an order has no matches; the next has none
        nxt = out[i + 1] if i + 1 < len(out) else 0.0
        out[i] = (prev + out[i] + nxt) / 3.0
        prev = out[i]
    return out


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
                            output.word_count, cfg)


def bleu_from_counts(counts: Sequence[tuple[int, int]], src_len: int,
                     out_len: int, cfg: BleuConfig) -> float:
    """BLEU from bleu_counts' (matches, total) per order and the word
    counts of source and output; see bleu."""
    if src_len == 0:
        raise ValueError("bleu: source must contain at least one word token")
    if out_len == 0:
        return 0.0

    orders = [n for n in range(1, cfg.max_order + 1) if counts[n - 1][1] > 0]
    raw = [counts[n - 1] for n in orders]

    if all(num > 0 for num, _ in raw):
        precisions = [num / den for num, den in raw]
    elif cfg.smoothing == "none":
        return 0.0
    else:
        precisions = _smooth(raw, out_len)

    if any(x == 0.0 for x in precisions):
        return 0.0
    log_mean = sum(math.log(x) for x in precisions) / len(precisions)
    brevity = math.exp(min(0.0, 1.0 - src_len / out_len))
    return brevity * math.exp(log_mean)


# ---------------------------------------------------------------------------
# ROUGE-L
# ---------------------------------------------------------------------------

def _lcs_length(a: list[str], b: list[str]) -> int:
    """Bit-parallel LCS length (Allison & Dix 1986; Hyyrö 2004). After
    each word of b, bit i of v is 0 exactly when a[:i + 1] has a longer
    LCS with the words read so far than a[:i] has, so the LCS length is
    the number of zero bits among the low len(a)."""
    masks: dict[str, int] = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | 1 << i
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
    if not ref or not cand:
        return 0.0
    lcs = _lcs_length(ref, cand)
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


def _quotas(cand: list[str], ref: list[str]
            ) -> tuple[dict[str, str], dict[str, int], dict[str, int]]:
    """(stem_of, exact, stem): the stem class of every word of either
    text, each word's maximal number of exact matches, and each stem
    class's maximal number of stem matches among the occurrences the
    exact stage leaves over. Only positive quotas are kept."""
    c_cnt, r_cnt = Counter(cand), Counter(ref)
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


def _chunk_bound(cand: list[str], ref: list[str], stem_of: dict[str, str],
                 exact: dict[str, int], stem: dict[str, int]
                 ) -> Callable[[int, int, int], int]:
    """fewest_new_chunks(i, remaining, last_j): a lower bound on the
    chunks an alignment must still open to place `remaining` matches in
    cand[i:], after cand[i - 1] was matched to ref[last_j] (last_j < 0:
    it was not).

    A chunk never crosses a segment of cand, a run of matchable positions
    in which each adjacent pair's stem classes are also adjacent somewhere
    in ref. So the bound is the fewest segments of cand[i:], longest
    first, that can hold `remaining` matches; the segment at i costs
    nothing when the open chunk may run on into it.
    """
    ref_cls = [stem_of[w] for w in ref]
    adjacent = set(zip(ref_cls, ref_cls[1:]))
    # head[i]: the matchable positions from i to the end of i's segment;
    # after[i]: cumulative lengths of the later segments, longest first
    m = len(cand)
    head = [0] * (m + 1)
    after: list[list[int]] = [[]] * m
    lengths: list[int] = []  # negated, ascending
    cums: list[int] = []
    nxt = None  # stem class of cand[i + 1]
    for i in range(m - 1, -1, -1):
        w = cand[i]
        s = stem_of[w]
        if w in exact or s in stem:
            head[i] = head[i + 1] + 1 if (s, nxt) in adjacent else 1
        if head[i + 1] and head[i] != head[i + 1] + 1:  # i + 1 starts one
            insort(lengths, -head[i + 1])
            cums = [-x for x in accumulate(lengths)]
        after[i] = cums
        nxt = s

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


def _align(cand: list[str], ref: list[str]) -> tuple[int, int, bool]:
    """(matches, chunks, exhaustive) of METEOR's unigram alignment of
    cand to ref.

    Every word gets exactly its maximal number of exact matches (stage
    priority), and every stem class exactly the maximal number of stem
    matches among the occurrences left over (_quotas). Among those
    alignments a depth-first search over cand positions, with quota
    feasibility pruning and branch-and-bound on _chunk_bound, minimises
    the chunk count. It stops as soon as it reaches the bound at the
    root. It runs from an explicit stack of child generators, not by
    recursion, so it does not depend on the depth of the caller's stack
    and a long cand cannot exhaust it.

    The chunk count is exact when ``exhaustive`` is true. Otherwise a
    node was cut by NODE_BUDGET (expanded search nodes), and the count
    is that of the best alignment found, an upper bound.
    """
    stem_of, exact, stem = _quotas(cand, ref)
    matches = sum(exact.values()) + sum(stem.values())
    if matches == 0:
        return 0, 0, True
    fewest_new_chunks = _chunk_bound(cand, ref, stem_of, exact, stem)

    at_word: dict[str, list[int]] = {}  # ref positions, ascending
    for j, w in enumerate(ref):
        at_word.setdefault(w, []).append(j)
    # occurrences of cand[i]'s word in cand[i:]
    m = len(cand)
    word_after = [0] * m
    seen: dict[str, int] = {}
    for i in range(m - 1, -1, -1):
        w = cand[i]
        word_after[i] = seen[w] = seen.get(w, 0) + 1
    if stem:  # the same for stem classes, and their exactly matched words
        at_stem: dict[str, list[int]] = {}
        for j, w in enumerate(ref):
            at_stem.setdefault(stem_of[w], []).append(j)
        stem_after = [0] * m
        seen = {}
        for i in range(m - 1, -1, -1):
            s = stem_of[cand[i]]
            stem_after[i] = seen[s] = seen.get(s, 0) + 1
        in_class: dict[str, list[str]] = {}
        for w in exact:
            in_class.setdefault(stem_of[w], []).append(w)

    used = [False] * len(ref)
    rem_exact, rem_stem, free = dict(exact), dict(stem), Counter(ref)

    def children(i, remaining, last_j, chunks):
        w = cand[i]
        need = rem_exact.get(w, 0)
        if need > 0:  # exact matches first, in ascending ref position
            for j in at_word[w]:
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
                for j in at_stem[s]:
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

    root = fewest_new_chunks(0, matches, -2)
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


def _step_rows(rows: np.ndarray, mismatch: np.ndarray,
               idx: np.ndarray) -> np.ndarray:
    """One edit-distance DP step for a batch of rows.

    rows[r][q] is the distance between src[:q] and some sequence; the
    result extends row r's sequence by one token, where mismatch[r][q] is
    1 if src[q] differs from that token and 0 if it equals it.
    """
    new = np.empty_like(rows)
    new[:, 0] = rows[:, 0] + 1
    np.minimum(rows[:, :-1] + mismatch, rows[:, 1:] + 1, out=new[:, 1:])
    new -= idx
    np.minimum.accumulate(new, axis=1, out=new)
    new += idx
    return new


def _dp_rows(mismatch: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """rows[p][r] = DP row of the first p tokens of sequence r, where
    mismatch[t][r] is the mismatch row of token t of sequence r."""
    rows = np.empty((len(mismatch) + 1, mismatch.shape[1], len(idx)),
                    dtype=idx.dtype)
    rows[0] = idx
    for p, step in enumerate(mismatch):
        rows[p + 1] = _step_rows(rows[p], step, idx)
    return rows


def _distance_table(src: Sequence[int],
                    out: Sequence[int]) -> list[list[int]]:
    """t[i][j] = edit distance between src[:i] and out[:j], so t[-1][-1]
    is the distance between the two sequences."""
    row = list(range(len(out) + 1))
    table = [row]
    for i, s in enumerate(src, start=1):
        prev, row, left = row, [i], i
        for diag, up, o in zip(prev, prev[1:], out):
            cell = diag if s == o else diag + 1
            if up + 1 < cell:
                cell = up + 1
            if left + 1 < cell:
                cell = left + 1
            row.append(cell)
            left = cell
        table.append(row)
    return table


def _multiset_lower_bound(src: tuple[int, ...], out: tuple[int, ...]) -> int:
    cs = Counter(src)
    co = Counter(out)
    overlap = sum(min(c, co.get(t, 0)) for t, c in cs.items())
    return max(len(src) - overlap, len(out) - overlap)


class _ShiftSearch:
    """Block-shift search over the output sequence.

    Outputs of more than EXACT_LIMIT tokens get the greedy search of
    TERCOM: repeatedly apply the first block move (any contiguous block to
    any position) that most reduces the word edit distance to the source,
    while some move strictly reduces it and the distance is above the
    multiset lower bound (no rearrangement can ever do better). The total
    error count therefore never exceeds the plain edit distance. Edit
    distance with block moves is NP-complete, so this is an upper bound.

    Greedy can miss optima that need a tied or non-improving intermediate
    move, so for outputs of at most EXACT_LIMIT tokens whose greedy total
    still exceeds the lower bound, a best-first search over move
    sequences finds the exact optimum.

    Each greedy step (`_best_move`) scores every block move of an
    n-token output against an m-token source. Every move swaps two
    adjacent segments, so `_swap_distances` scores all ~n^3/6 swaps in
    one batched DP: the prefix and suffix DP rows of the output are
    computed once and reused, and the remaining rows of all swaps
    advance together: about 3n vectorised row steps per greedy step, and
    O(n^3 m) cell updates.
    """

    EXACT_LIMIT = 7
    CHUNK_CELLS = 1 << 22  # backward-row cells _swap_distances keeps at once

    def __init__(self, src_ids: tuple[int, ...]):
        self.src = np.asarray(src_ids, dtype=np.int64)
        self.src_t = src_ids

    def plan(self, out: tuple[int, ...],
             ed: int) -> tuple[int, int, tuple[int, ...]]:
        """Return (shifts, remaining_edit_distance, final_sequence), given
        the edit distance `ed` of `out` itself."""
        lb = _multiset_lower_bound(self.src_t, out)
        shifts, final = 0, out
        while ed > lb:
            delta, moved = self._best_move(final, ed)
            if moved is None:
                break
            shifts, ed, final = shifts + 1, ed - delta, moved
        if shifts + ed > lb and len(out) <= self.EXACT_LIMIT:
            return self._exact_refine(out, (shifts, ed, final))
        return shifts, ed, final

    def _exact_refine(self, out, greedy):
        """Best-first search over move sequences, seeded and bounded by the
        greedy solution. Block moves only permute `out`, and a state is
        pushed only when its move count strictly improves, so each of the
        at most EXACT_LIMIT! permutations is expanded once."""
        best_total = greedy[0] + greedy[1]
        best = greedy
        dist = {out: 0}
        heap = [(0, out)]
        while heap:
            moves, state = heapq.heappop(heap)
            if moves != dist.get(state):
                continue
            ed = _distance_table(self.src_t, state)[-1][-1]
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

    def _best_move(self, out: tuple[int, ...], ed: int):
        """(reduction, moved sequence) of the first block move with the
        largest edit-distance reduction, or (0, None) if no move reduces
        the distance.

        Moves are ordered by block length descending, start ascending,
        insertion point ascending; lengths stop at the first whose doubled
        value is below the best reduction (a block move never changes the
        distance by more than twice its length).

        Moving out[i:i+length] to insertion point j of the remaining
        tokens swaps two adjacent segments of `out`: out[j:i] and the
        block when j < i, the block and out[i+length:j+length] when
        j > i. All distances are read from the table that
        `_swap_distances` fills in one batched pass, and the row-major
        argmin of each length's (start, insertion point) table is its
        first best move.
        """
        n = len(out)
        if n < 2:
            return 0, None
        best_delta, best = 0, None
        swapped = self._swap_distances(out)
        for length in range(n - 1, 0, -1):
            if 2 * length < best_delta:
                break  # delta of a block move never exceeds twice its length
            k = n - length + 1
            i = np.arange(k)[:, None]
            j = np.arange(k)[None, :]
            dists = np.where(j < i, swapped[j, i, i + length],
                             swapped[i, i + length, j + length])
            np.fill_diagonal(dists, ed)  # inserting at i reproduces `out`
            flat = int(dists.argmin())
            delta = ed - int(dists.flat[flat])
            if delta > best_delta:
                best_delta, best = delta, (length, *divmod(flat, k))
        if best is None:
            return 0, None
        length, start, pos = best
        block = out[start:start + length]
        rest = out[:start] + out[start + length:]
        return best_delta, rest[:pos] + block + rest[pos:]

    def _swap_distances(self, out: tuple[int, ...]) -> np.ndarray:
        """Edit distances of every adjacent-segment swap of `out`.

        Returns d with d[a, b, c] = edit distance between the source and
        out[:a] + out[b:c] + out[a:b] + out[c:] for 0 <= a < b < c <= n
        (other entries are 0). The swap splits into a forward part,
        the prefix row of out[:a] extended through out[b:c], and a
        backward part, the suffix row of out[c:] (reversed-source
        orientation) extended leftwards through out[a:b]; the distance
        is the minimum over source split points of their sum.

        Prefix and suffix rows of `out` are computed once. The forward
        parts of all (a, b) pairs advance together, one vectorised DP
        step per value of c - b, each row with its own token from a
        precomputed src != out[t] mismatch table; the backward parts of
        all (b, c) pairs advance together, one step per value of b - a.
        With the n steps of the prefix and suffix rows, that is about 3n
        array steps per call, over O(n^3 m) cells in total. Cells held
        at once are capped by splitting the b values into chunks of
        about CHUNK_CELLS stored cells, each chunk doing its own 2n
        steps.
        """
        n, m = len(out), len(self.src)
        idx = np.arange(m + 1, dtype=np.int32)
        mis = (self.src[None, :] != np.asarray(out)[:, None]).astype(np.int32)
        mis_rev = np.ascontiguousarray(mis[:, ::-1])
        ends = _dp_rows(np.stack([mis, mis_rev[::-1]], axis=1), idx)
        prefix, suffix = ends[:, 0], ends[::-1, 1]
        swapped = np.zeros((n + 1, n + 1, n + 1), dtype=np.int32)
        fb, fa = np.tril_indices(n, -1)        # (b, a), a < b, b ascending
        gb, gc = np.triu_indices(n + 1, 1)     # (b, c), b < c
        gb, gc = gb[::-1], gc[::-1]            # b descending
        for lo, hi in self._b_chunks(n, m):
            # backward parts: the pairs with b >= t are a prefix of
            # (cb, cc); steps[t - 1][r] is pair r extended to a = b - t
            keep = (gb >= lo) & (gb < hi)
            cb, cc = gb[keep], gc[keep]
            pos = np.zeros((n + 1, n + 1), dtype=np.intp)
            pos[cb, cc] = np.arange(len(cb))
            rows = suffix[cc]
            steps = []
            for t in range(1, hi):
                live = np.count_nonzero(cb >= t)
                rows = _step_rows(rows[:live], mis_rev[cb[:live] - t], idx)
                steps.append(rows)
            offset = np.cumsum([0] + [len(r) for r in steps])
            backward = np.concatenate(steps)
            # forward parts: the pairs with b + s <= n are a prefix
            keep = (fb >= lo) & (fb < hi)
            cb, ca = fb[keep], fa[keep]
            rows = prefix[ca]
            for s in range(1, n - lo + 1):
                live = np.count_nonzero(cb <= n - s)
                a, b = ca[:live], cb[:live]
                rows = _step_rows(rows[:live], mis[b + s - 1], idx)
                back = backward[offset[b - a - 1] + pos[b, b + s]]
                swapped[a, b, b + s] = (rows + back[:, ::-1]).min(axis=1)
        return swapped

    @classmethod
    def _b_chunks(cls, n: int, m: int):
        """Split b = 1..n-1 into ranges [lo, hi) whose stored backward rows
        (b * (n - b) rows of m + 1 cells per b) stay near CHUNK_CELLS."""
        lo, cells = 1, 0
        for b in range(1, n):
            cells += b * (n - b) * (m + 1)
            if cells >= cls.CHUNK_CELLS or b == n - 1:
                yield lo, b + 1
                lo, cells = b + 1, 0


def _decompose(src_ids: tuple[int, ...], out_ids: tuple[int, ...],
               dp: list[list[int]]) -> tuple[int, int, int, int]:
    """Optimal unit-cost alignment counts (insertions, deletions,
    substitutions, matches) transforming source into output, backtraced
    through their source-major `_distance_table` dp, where dp[i][j] is
    the distance between src_ids[:i] and out_ids[:j].

    Backtrace prefers diagonal steps, then deletions, then insertions,
    which fixes one canonical decomposition among cost-equal alignments.
    """
    ins = dels = subs = matches = 0
    i, j = len(src_ids), len(out_ids)
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            step = 0 if src_ids[i - 1] == out_ids[j - 1] else 1
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


def ter_align(source: TokenizedText, output: TokenizedText) -> EditBreakdown:
    """TER-style breakdown: block shifts over the output (exhaustive for
    outputs of at most 7 tokens, first-best-move greedy above; see
    `_ShiftSearch`), then a word-level unit-cost alignment of the source
    against the shifted output, normalized by the source length."""
    src_words = source.words
    out_words = output.words
    if not src_words:
        raise ValueError("ter_align: source must contain at least one word")

    vocab: dict[str, int] = {}
    src_ids = tuple(vocab.setdefault(w, len(vocab)) for w in src_words)
    out_ids = tuple(vocab.setdefault(w, len(vocab)) for w in out_words)

    if not out_ids:
        n = len(src_ids)
        return EditBreakdown(
            insertions=0, deletions=n, substitutions=0, shifts=0,
            matches=0, num_errors=n, normalized_score=1.0,
        )

    search = _ShiftSearch(src_ids)
    table = _distance_table(src_ids, out_ids)
    shifts, _, final = search.plan(out_ids, table[-1][-1])
    if shifts:  # block moves changed the output: align the moved one
        table = _distance_table(src_ids, final)
    ins, dels, subs, matches = _decompose(src_ids, final, table)
    num_errors = ins + dels + subs + shifts
    return EditBreakdown(
        insertions=ins,
        deletions=dels,
        substitutions=subs,
        shifts=shifts,
        matches=matches,
        num_errors=num_errors,
        normalized_score=num_errors / len(src_ids),
    )
