"""MT-style comparison metrics, used reference-lessly between a source
sentence and a simplification system output.

The output plays the role of the candidate/hypothesis and the source the
role of the single reference. All metrics operate on the flattened word
token sequence; sentence boundaries only constrain n-gram extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .textproc import TokenizedText, ngrams, porter_stem

__all__ = [
    "BleuConfig",
    "MeteorConfig",
    "EditBreakdown",
    "bleu",
    "rouge",
    "meteor",
    "ter_align",
    "SMOOTHING_METHODS",
]

SMOOTHING_METHODS = (
    "none",
    "method1",
    "method2",
    "method3",
    "method4",
    "method5",
    "method6",
    "method7",
)


@dataclass(frozen=True)
class BleuConfig:
    max_order: int = 4
    smoothing: str = "none"
    epsilon: float = 0.1  # method1
    alpha: float = 5.0    # method6
    k: float = 5.0        # method4

    def __post_init__(self):
        if self.max_order not in (1, 2, 3, 4):
            raise ValueError(f"max_order must be in 1..4, got {self.max_order}")
        if self.smoothing not in SMOOTHING_METHODS:
            raise ValueError(f"unknown smoothing {self.smoothing!r}")


@dataclass(frozen=True)
class MeteorConfig:
    alpha: float = 0.9           # recall/precision mix: F = PR / (aP + (1-a)R)
    penalty_gamma: float = 0.5
    penalty_beta: float = 3.0
    match_stages: tuple[str, ...] = ("exact", "stem")

    def __post_init__(self):
        if not 0.0 <= self.penalty_gamma <= 1.0:
            raise ValueError("penalty_gamma must lie in [0, 1]")
        if self.penalty_beta <= 0:
            raise ValueError("penalty_beta must be positive")


DEFAULT_BLEU = BleuConfig()
DEFAULT_METEOR = MeteorConfig()


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def _raw_precisions(source: TokenizedText, output: TokenizedText,
                    orders: list[int]) -> list[tuple[int, int]]:
    """Clipped-match numerator and candidate-count denominator per order.

    Denominators are floored at 1, so an order with no candidate n-grams
    yields precision 0 rather than a division error.
    """
    out = []
    for n in orders:
        cand = ngrams(output, n).counts
        ref = ngrams(source, n).counts
        num = sum(min(c, ref.get(g, 0)) for g, c in cand.items())
        den = max(1, sum(cand.values()))
        out.append((num, den))
    return out


def _smooth(raw: list[tuple[int, int]], method: str, hyp_len: int,
            p_next: float, cfg: BleuConfig) -> list[float]:
    """Apply one smoothing method from the standard seven-method catalogue.

    Only called when at least one precision is zero; callers short-circuit
    otherwise so that smoothing never changes an all-nonzero score.
    """
    p = [num / den for num, den in raw]

    if method == "method1":
        # replace zero counts with a small epsilon count
        p = [(cfg.epsilon / den) if num == 0 else num / den
             for num, den in raw]
    elif method == "method2":
        # add one to numerator and denominator for orders above unigram
        p = [num / den if i == 0 else (num + 1) / (den + 1)
             for i, (num, den) in enumerate(raw)]
    elif method == "method3":
        # geometric decay: k-th zero precision becomes 1 / (2^k * den)
        inc = 1
        for i, (num, den) in enumerate(raw):
            if num == 0:
                p[i] = 1.0 / (2 ** inc * den)
                inc += 1
    elif method in ("method4", "method7"):
        # like method3 but scaled down for short candidates
        inc = 1
        for i, (num, den) in enumerate(raw):
            if num == 0 and hyp_len > 1:
                p[i] = (math.log(hyp_len) / (2 ** inc * cfg.k)) / den
                inc += 1
        if method == "method7":
            p = _average_with_neighbours(p, p_next)
    elif method == "method5":
        p = _average_with_neighbours(p, p_next)
    elif method == "method6":
        # interpolate order >= 3 with a geometric prior from lower orders
        for i, (num, den) in enumerate(raw):
            if i >= 2:
                pi0 = 0.0 if p[i - 2] == 0 else p[i - 1] ** 2 / p[i - 2]
                p[i] = (num + cfg.alpha * pi0) / (den + cfg.alpha)
    return [min(max(x, 0.0), 1.0) for x in p]


def _average_with_neighbours(p: list[float], p_next: float) -> list[float]:
    out = list(p)
    prev = p[0] + 1.0
    for i in range(len(out)):
        nxt = out[i + 1] if i + 1 < len(out) else p_next
        out[i] = (prev + out[i] + nxt) / 3.0
        prev = out[i]
    return out


def bleu(source: TokenizedText, output: TokenizedText,
         cfg: BleuConfig = DEFAULT_BLEU) -> float:
    """Sentence BLEU of the output against the source as single reference.

    Geometric mean of modified n-gram precisions up to cfg.max_order,
    restricted to orders for which the output has at least one n-gram,
    times the brevity penalty exp(min(0, 1 - |source| / |output|)).
    Smoothing only kicks in when some precision is zero, so every method
    agrees with the unsmoothed score on inputs with all-positive matches.
    """
    src_len = source.word_count
    out_len = output.word_count
    if src_len == 0:
        raise ValueError("bleu: source must contain at least one word token")
    if out_len == 0:
        return 0.0

    orders = [n for n in range(1, cfg.max_order + 1)
              if ngrams(output, n).total > 0]
    raw = _raw_precisions(source, output, orders)

    if all(num > 0 for num, _ in raw):
        precisions = [num / den for num, den in raw]
    elif cfg.smoothing == "none":
        return 0.0
    else:
        p_next = 0.0
        if cfg.smoothing in ("method5", "method7"):
            (num, den), = _raw_precisions(source, output, [orders[-1] + 1])
            p_next = num / den
        precisions = _smooth(raw, cfg.smoothing, out_len, p_next, cfg)

    if any(x == 0.0 for x in precisions):
        return 0.0
    log_mean = sum(math.log(x) for x in precisions) / len(precisions)
    brevity = math.exp(min(0.0, 1.0 - src_len / out_len))
    return brevity * math.exp(log_mean)


# ---------------------------------------------------------------------------
# ROUGE-L
# ---------------------------------------------------------------------------

def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


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

class _ChunkSearch:
    """Minimize chunk count over unigram alignments with fixed stage quotas.

    The alignment must contain, for every word, exactly the maximal number
    of exact matches (stage priority), and for every stem class exactly
    the maximal number of stem matches among the remaining occurrences.
    The search is depth-first over candidate positions with quota
    feasibility pruning and branch-and-bound on the chunk count; it is
    exhaustive (exact) up to a node budget, beyond which the best
    alignment found so far is used.
    """

    NODE_BUDGET = 250_000

    def __init__(self, cand: list[str], ref: list[str], use_stem: bool):
        self.cand = cand
        self.ref = ref
        from collections import Counter

        c_cnt = Counter(cand)
        r_cnt = Counter(ref)
        self.quota_exact = {w: min(c, r_cnt.get(w, 0)) for w, c in c_cnt.items()}
        self.n_exact = sum(self.quota_exact.values())

        self.stem_of = {}
        self.quota_stem: dict[str, int] = {}
        if use_stem:
            for w in set(cand) | set(ref):
                self.stem_of[w] = porter_stem(w)
            res_c: dict[str, int] = {}
            res_r: dict[str, int] = {}
            for w, c in c_cnt.items():
                s = self.stem_of[w]
                res_c[s] = res_c.get(s, 0) + c - self.quota_exact[w]
            for w, r in r_cnt.items():
                s = self.stem_of[w]
                res_r[s] = res_r.get(s, 0) + r - min(r, c_cnt.get(w, 0))
            for s in res_c:
                q = min(res_c[s], res_r.get(s, 0))
                if q > 0:
                    self.quota_stem[s] = q
        self.n_stem = sum(self.quota_stem.values())
        self.n_total = self.n_exact + self.n_stem
        self.words_in_class: dict[str, list[str]] = {}
        if use_stem:
            for w, q in self.quota_exact.items():
                if q > 0:
                    self.words_in_class.setdefault(self.stem_of[w], []).append(w)

        self.ref_pos_by_word: dict[str, list[int]] = {}
        for j, w in enumerate(ref):
            self.ref_pos_by_word.setdefault(w, []).append(j)
        self.ref_pos_by_stem: dict[str, list[int]] = {}
        if use_stem:
            for j, w in enumerate(ref):
                self.ref_pos_by_stem.setdefault(self.stem_of[w], []).append(j)

        # cand occurrences of each word / stem class after position i
        m = len(cand)
        self.word_after = [dict() for _ in range(m + 1)]
        self.stem_after = [dict() for _ in range(m + 1)]
        wa: dict[str, int] = {}
        sa: dict[str, int] = {}
        for i in range(m, 0, -1):
            w = cand[i - 1]
            wa = dict(wa)
            wa[w] = wa.get(w, 0) + 1
            self.word_after[i - 1] = wa
            if use_stem:
                sa = dict(sa)
                s = self.stem_of[w]
                sa[s] = sa.get(s, 0) + 1
                self.stem_after[i - 1] = sa

    def run(self) -> int:
        if self.n_total == 0:
            return 0
        self.best = self.n_total  # every match its own chunk, always feasible
        self.nodes = 0
        self.used = [False] * len(self.ref)
        self.rem_exact = dict(self.quota_exact)
        self.rem_stem = dict(self.quota_stem)
        self.ref_avail_word = {w: len(p) for w, p in self.ref_pos_by_word.items()}
        self.ref_avail_stem = {s: len(p) for s, p in self.ref_pos_by_stem.items()}
        self._dfs(0, self.n_total, -2, 0)
        return self.best

    def _feasible_skip(self, i: int, w: str) -> bool:
        """Can quotas still be met if cand position i stays unmatched?

        Necessary conditions only: exact matches for word w must come from
        later occurrences of w, and all remaining quotas of w's stem class
        must fit into later occurrences of that class.
        """
        if self.rem_exact.get(w, 0) > self.word_after[i].get(w, 0) - 1:
            return False
        if self.quota_stem:
            s = self.stem_of[w]
            need = self.rem_stem.get(s, 0) + sum(
                self.rem_exact[v] for v in self.words_in_class.get(s, ())
            )
            if need > self.stem_after[i].get(s, 0) - 1:
                return False
        return True

    def _dfs(self, i: int, remaining: int, last_j: int, chunks: int) -> None:
        if remaining == 0:
            if chunks < self.best:
                self.best = chunks
            return
        if chunks >= self.best or self.nodes > self.NODE_BUDGET:
            return
        m = len(self.cand)
        if i >= m or m - i < remaining:
            return
        self.nodes += 1
        w = self.cand[i]

        # exact matches first, nearest-to-adjacent position first
        if self.rem_exact.get(w, 0) > 0:
            for j in self.ref_pos_by_word[w]:
                if self.used[j]:
                    continue
                self._take(i, j, w, None, remaining, last_j, chunks)
        # stem-stage matches
        if self.quota_stem:
            s = self.stem_of[w]
            if (
                self.rem_stem.get(s, 0) > 0
                and self.word_after[i].get(w, 0) - 1
                >= self.rem_exact.get(w, 0)
            ):
                for j in self.ref_pos_by_stem[s]:
                    rw = self.ref[j]
                    if self.used[j] or rw == w:
                        continue
                    # keep enough ref occurrences of rw for its exact quota
                    if (
                        self.ref_avail_word[rw] - 1
                        < self.rem_exact.get(rw, 0)
                    ):
                        continue
                    self._take(i, j, w, s, remaining, last_j, chunks)
        # leave i unmatched
        if self._feasible_skip(i, w):
            self._dfs(i + 1, remaining, -2, chunks)

    def _take(self, i, j, w, stem_class, remaining, last_j, chunks):
        rw = self.ref[j]
        self.used[j] = True
        self.ref_avail_word[rw] -= 1
        if self.ref_pos_by_stem:
            self.ref_avail_stem[self.stem_of[rw]] -= 1
        if stem_class is None:
            self.rem_exact[w] -= 1
        else:
            self.rem_stem[stem_class] -= 1
        new_chunks = chunks if j == last_j + 1 else chunks + 1
        self._dfs(i + 1, remaining - 1, j, new_chunks)
        if stem_class is None:
            self.rem_exact[w] += 1
        else:
            self.rem_stem[stem_class] += 1
        if self.ref_pos_by_stem:
            self.ref_avail_stem[self.stem_of[rw]] += 1
        self.ref_avail_word[rw] += 1
        self.used[j] = False


def meteor(source: TokenizedText, output: TokenizedText,
           cfg: MeteorConfig = DEFAULT_METEOR) -> float:
    """METEOR score of the output against the source as reference.

    Unigram alignment maximizes the match count with exact matches taking
    priority over stem matches, then minimizes the number of chunks; the
    final score is the recall-weighted F-mean scaled by the fragmentation
    penalty 1 - gamma * (chunks / matches) ** beta.
    """
    ref = source.words
    cand = output.words
    if not ref or not cand:
        return 0.0

    search = _ChunkSearch(cand, ref, use_stem="stem" in cfg.match_stages)
    matches = search.n_total
    if matches == 0:
        return 0.0
    chunks = search.run()

    precision = matches / len(cand)
    recall = matches / len(ref)
    fmean = (precision * recall
             / (cfg.alpha * precision + (1 - cfg.alpha) * recall))
    penalty = cfg.penalty_gamma * (chunks / matches) ** cfg.penalty_beta
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


def _edit_distance_ids(src: np.ndarray, out: tuple[int, ...]) -> int:
    m = len(src)
    if not out:
        return m
    if m == 0:
        return len(out)
    idx = np.arange(m + 1)
    row = idx.copy()
    for tok in out:
        new = np.empty(m + 1, dtype=np.int64)
        new[0] = row[0] + 1
        np.minimum(row[:-1] + (src != tok), row[1:] + 1, out=new[1:])
        np.minimum.accumulate(new - idx, out=new)
        new += idx
        row = new
    return int(row[m])


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


def _multiset_lower_bound(src: tuple[int, ...], out: tuple[int, ...]) -> int:
    from collections import Counter

    cs = Counter(src)
    co = Counter(out)
    overlap = sum(min(c, co.get(t, 0)) for t, c in cs.items())
    return max(len(src) - overlap, len(out) - overlap)


class _ShiftSearch:
    """Block-shift search over the output sequence.

    The engine is greedy: repeatedly apply the single block move (any
    contiguous block to any position) that most reduces the word edit
    distance to the source; moves that tie on the reduction are each
    explored and the best completion kept. A move is only applied while
    it strictly reduces the edit distance, so the total error count never
    exceeds the plain edit distance, and the search stops as soon as the
    multiset lower bound is reached (no rearrangement can ever do
    better).

    Greedy can miss optima that require a non-improving intermediate
    move, so for short outputs (<= EXACT_LIMIT tokens) whose greedy total
    still exceeds the lower bound, a bounded best-first search over move
    sequences closes the gap exactly; longer outputs keep the greedy
    result, which is the standard behavior for this metric family.

    Each greedy step (`_best_moves`) scores every block move of an
    n-token output against an m-token source. Every move swaps two
    adjacent segments, so `_swap_distances` scores all ~n^3/6 swaps in
    one batched DP: the prefix and suffix DP rows of the output are
    computed once and reused, and the remaining rows of all swaps
    advance together: about 3n vectorised row steps per greedy step, and
    O(n^3 m) cell updates. The tie order of the moves, and so every
    result, is that of scoring each move on its own.
    """

    EXACT_LIMIT = 7
    EXACT_NODE_BUDGET = 200_000
    CHUNK_CELLS = 1 << 22  # backward-row cells _swap_distances keeps at once

    def __init__(self, src_ids: tuple[int, ...]):
        self.src = np.asarray(src_ids, dtype=np.int64)
        self.src_t = src_ids
        self.memo: dict[tuple[int, ...], tuple[int, int, tuple[int, ...]]] = {}

    def plan(self, out: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
        """Return (shifts, remaining_edit_distance, final_sequence)."""
        greedy = self._plan_memo(out)
        lb = _multiset_lower_bound(self.src_t, out)
        if greedy[0] + greedy[1] > lb and len(out) <= self.EXACT_LIMIT:
            return self._exact_refine(out, greedy)
        return greedy

    def _plan_memo(self, out: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
        if out in self.memo:
            return self.memo[out]
        ed = _edit_distance_ids(self.src, out)
        lb = _multiset_lower_bound(self.src_t, out)
        result = self._plan_inner(out, ed, lb)
        self.memo[out] = result
        return result

    def _plan_inner(self, out, ed, lb):
        if ed <= lb:
            return 0, ed, out
        best_delta, tied = self._best_moves(out, ed)
        if best_delta < 1:
            return 0, ed, out
        best = None
        for cand in tied:
            shifts, rest_ed, final = self._plan_memo(cand)
            total = 1 + shifts + rest_ed
            if best is None or total < best[0] + best[1]:
                best = (1 + shifts, rest_ed, final)
        return best

    def _exact_refine(self, out, greedy):
        """Best-first search over move sequences, seeded and bounded by the
        greedy solution; exact unless the node budget trips (then greedy
        stands)."""
        import heapq

        best_total = greedy[0] + greedy[1]
        best = greedy
        dist = {out: 0}
        heap = [(0, out)]
        nodes = 0
        while heap and nodes < self.EXACT_NODE_BUDGET:
            moves, state = heapq.heappop(heap)
            if moves != dist.get(state):
                continue
            nodes += 1
            ed = _edit_distance_ids(self.src, state)
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

    def _best_moves(self, out: tuple[int, ...], ed: int):
        """Best single-move reduction and all moves achieving it.

        Moves are enumerated by block length descending, start ascending,
        insertion point ascending, and stop at the first length whose
        doubled value is below the best reduction (a block move never
        changes the distance by more than twice its length). Each
        distinct resulting sequence is kept once, in first-seen order.

        Moving out[i:i+length] to insertion point j of the remaining
        tokens swaps two adjacent segments of `out`: out[j:i] and the
        block when j < i, the block and out[i+length:j+length] when
        j > i. All distances are read from the table that
        `_swap_distances` fills in one batched pass, so enumeration
        costs a few array operations per length.
        """
        n = len(out)
        best_delta = 0
        tied: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = {out}
        if n < 2:
            return best_delta, tied
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
            deltas = ed - dists.astype(np.int64)
            for start, top in enumerate(deltas.max(axis=1).tolist()):
                if top < best_delta or top < 1:
                    continue
                if top > best_delta:
                    best_delta = top
                    tied = []
                    seen = {out}
                block = out[start:start + length]
                rest = out[:start] + out[start + length:]
                for pos in np.flatnonzero(deltas[start] == top):
                    cand = rest[:pos] + block + rest[pos:]
                    if cand not in seen:
                        seen.add(cand)
                        tied.append(cand)
        return best_delta, tied

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


def _decompose(src_ids: tuple[int, ...],
               out_ids: tuple[int, ...]) -> tuple[int, int, int, int]:
    """Optimal unit-cost alignment counts (insertions, deletions,
    substitutions, matches) transforming source into output.

    Backtrace prefers diagonal steps, then deletions, then insertions,
    which fixes one canonical decomposition among cost-equal alignments.
    """
    n, m = len(src_ids), len(out_ids)
    dp = np.empty((n + 1, m + 1), dtype=np.int64)
    dp[0] = np.arange(m + 1)
    dp[:, 0] = np.arange(n + 1)
    for i in range(1, n + 1):
        prev = dp[i - 1]
        cur = dp[i]
        np.minimum(prev[:-1] + (np.asarray(out_ids) != src_ids[i - 1]),
                   prev[1:] + 1, out=cur[1:])
        np.minimum.accumulate(cur - np.arange(m + 1), out=cur)
        cur += np.arange(m + 1)
    ins = dels = subs = matches = 0
    i, j = n, m
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
    """TER-style breakdown: greedy block shifts over the output, then a
    word-level unit-cost alignment of the source against the shifted
    output, normalized by the source length."""
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

    shifts, _, final = _ShiftSearch(src_ids).plan(out_ids)
    ins, dels, subs, matches = _decompose(src_ids, final)
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
