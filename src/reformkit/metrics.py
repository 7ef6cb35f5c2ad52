"""Corpus-level BLEU and chrF++ plus multi-direction averaging.

Both metrics aggregate sufficient statistics over the whole corpus before
computing the final score (micro averaging), so they are invariant under
reordering of sentence pairs. Scores live on the conventional 0-100 scale.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from operator import add
from typing import Iterable, Sequence

from .corpus import cast_fields
from .errors import ValidationError

SMOOTHING_NONE = "none"
SMOOTHING_ADD_K = "add_k"


@dataclass(frozen=True)
class ScoreConfig:
    """Knobs for both metrics; ``metric`` picks which one ``score`` runs."""

    metric: str = "chrfpp"
    max_ngram: int = 4
    smoothing: str = SMOOTHING_NONE
    smoothing_k: float = 1.0
    char_n: int = 6
    word_n: int = 2
    beta: float = 2.0

    def __post_init__(self) -> None:
        # ahead of the cast, which words a nan or infinite float its own way
        for name in ("smoothing_k", "beta"):
            value = getattr(self, name)
            if isinstance(value, (int, float)) and not 0 < value < math.inf:
                raise ValidationError(f"{name} must be finite and > 0")
        cast_fields(self)
        if self.metric not in ("bleu", "chrfpp"):
            raise ValidationError(f"unknown metric: {self.metric!r}")
        if self.max_ngram < 1:
            raise ValidationError("max_ngram must be >= 1")
        if self.smoothing not in (SMOOTHING_NONE, SMOOTHING_ADD_K):
            raise ValidationError(f"unknown smoothing: {self.smoothing!r}")
        if self.char_n < 1:
            raise ValidationError("char_n must be >= 1")
        if self.word_n < 0:
            raise ValidationError("word_n must be >= 0")


@dataclass(frozen=True)
class DirectionScore:
    src: str
    tgt: str
    value: float
    n_sentences: int

    def __post_init__(self) -> None:
        if self.src == self.tgt:
            raise ValidationError("direction must have distinct languages")
        if not 0.0 <= self.value <= 100.0:
            raise ValidationError(f"score {self.value} outside [0, 100]")
        if self.n_sentences < 1:
            raise ValidationError("n_sentences must be >= 1")


def _ngrams(seq: str | list[str], n: int, prev: list) -> list:
    """The order-n grams of a string or token list, n >= 2.

    A string's grams are substrings, each made in C by appending one
    character to an order n-1 gram ``prev``; a token list's are tuples.
    """
    if isinstance(seq, str):
        return list(map(add, prev, seq[n - 1 :]))
    return list(zip(*[seq[i:] for i in range(n)]))


def _clipped_matches(hyp: str | list, ref: str | list, n: int) -> int:
    """Sum over grams g of min(hyp count of g, ref count of g).

    When the hypothesis grams are all distinct, each hyp count is 1, so the
    sum is the size of the hypothesis gram set's intersection with the
    reference. Otherwise the counts are compared gram by gram. Unigrams
    nearly always repeat, so order 1 skips the set probe.
    """
    if n > 1:
        hyp_set = set(hyp)
        if len(hyp_set) == len(hyp):
            return len(hyp_set.intersection(ref))
    ref_count = Counter(ref).get
    matched = 0
    for gram, count in Counter(hyp).items():
        in_ref = ref_count(gram, 0)
        matched += count if count < in_ref else in_ref
    return matched


def _add_order_stats(stats: list[list[int]], hyp: str | list[str], ref: str | list[str]) -> None:
    """Add one sentence pair's [clipped matches, hyp total, ref total] to
    ``stats[n - 1]`` for every order n = 1..len(stats).

    Unigrams are the characters or tokens themselves. Both sides of a
    comparison are made the same way, so only the grams' type differs.
    """
    hyp_grams, ref_grams = hyp, ref
    for n, cell in enumerate(stats, 1):
        hyp_total = max(len(hyp) - n + 1, 0)
        ref_total = max(len(ref) - n + 1, 0)
        if not (hyp_total or ref_total):
            break
        cell[1] += hyp_total
        cell[2] += ref_total
        if hyp_total and ref_total:
            if n > 1:
                hyp_grams = _ngrams(hyp, n, hyp_grams)
                ref_grams = _ngrams(ref, n, ref_grams)
            cell[0] += _clipped_matches(hyp_grams, ref_grams, n)


def _order_stats(
    hyps: Sequence[str], refs: Sequence[str], char_n: int, word_n: int
) -> list[list[int]]:
    """[clipped matches, hyp total, ref total] per order, summed over the
    sentence pairs: character orders 1..char_n over each text with its
    whitespace removed, then word orders 1..word_n over its whitespace tokens."""
    if len(hyps) != len(refs):
        raise ValidationError(f"{len(hyps)} hypotheses vs {len(refs)} references")
    if not hyps:
        raise ValidationError("cannot score an empty corpus")
    char_stats = [[0, 0, 0] for _ in range(char_n)]
    word_stats = [[0, 0, 0] for _ in range(word_n)]
    for hyp, ref in zip(hyps, refs):
        hwords = hyp.split()
        rwords = ref.split()
        if char_stats:
            _add_order_stats(char_stats, "".join(hwords), "".join(rwords))
        _add_order_stats(word_stats, hwords, rwords)
    return char_stats + word_stats


def bleu(hyps: Sequence[str], refs: Sequence[str], cfg: ScoreConfig | None = None) -> float:
    """Corpus BLEU: clipped modified n-gram precisions under a brevity penalty.

    When the longest reference has fewer than max_ngram tokens the n-gram
    order is reduced to that length, so short-sentence corpora are scored
    over the orders they can actually support instead of collapsing to 0.
    """
    cfg = cfg or ScoreConfig(metric="bleu")
    stats = _order_stats(hyps, refs, 0, cfg.max_ngram)
    # A unigram is a token, so its totals are the corpus lengths. Orders
    # above the longest reference have no reference grams.
    _, hyp_len, ref_len = stats[0]
    effective_n = max(1, sum(1 for _, _, ref_total in stats if ref_total))
    del stats[effective_n:]

    if hyp_len == 0:
        return 0.0
    log_precisions = []
    for match, total, _ in stats:
        if cfg.smoothing == SMOOTHING_ADD_K:
            precision = (match + cfg.smoothing_k) / (total + cfg.smoothing_k)
        else:
            if match == 0 or total == 0:
                return 0.0
            precision = match / total
        log_precisions.append(math.log(precision))
    geo_mean = math.exp(math.fsum(log_precisions) / effective_n)
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * geo_mean


def chrfpp(hyps: Sequence[str], refs: Sequence[str], cfg: ScoreConfig | None = None) -> float:
    """chrF++: F-beta over averaged character and word n-gram P/R.

    Character n-grams (orders 1..char_n) are taken over the text with all
    whitespace removed; word n-grams (orders 1..word_n) over whitespace
    tokens. An order contributes to the average only when hypothesis or
    reference actually produced n-grams of that order somewhere.
    """
    cfg = cfg or ScoreConfig(metric="chrfpp")
    precisions = []
    recalls = []
    for matched, hyp_total, ref_total in _order_stats(hyps, refs, cfg.char_n, cfg.word_n):
        if hyp_total + ref_total == 0:
            continue
        precisions.append(matched / hyp_total if hyp_total else 0.0)
        recalls.append(matched / ref_total if ref_total else 0.0)
    if not precisions:
        return 0.0
    avg_p = math.fsum(precisions) / len(precisions)
    avg_r = math.fsum(recalls) / len(recalls)
    beta_sq = cfg.beta * cfg.beta
    denom = beta_sq * avg_p + avg_r
    if denom == 0.0:
        return 0.0
    return 100.0 * (1.0 + beta_sq) * avg_p * avg_r / denom


def score(hyps: Sequence[str], refs: Sequence[str], cfg: ScoreConfig) -> float:
    if cfg.metric == "bleu":
        return bleu(hyps, refs, cfg)
    return chrfpp(hyps, refs, cfg)


def check_distinct_directions(scores: Iterable[DirectionScore]) -> None:
    """Reject a score list that holds some (src, tgt) direction twice."""
    # Keyed by source, then target: a (src, tgt) key would allocate a tuple
    # per score, and over the 41,412 scores of a FLORES-200 run those set off
    # garbage collections that made `analyze` slower.
    seen: defaultdict[str, set[str]] = defaultdict(set)
    for s in scores:
        targets = seen[s.src]
        if s.tgt in targets:
            raise ValidationError(f"duplicate direction: {s.src}-{s.tgt}")
        targets.add(s.tgt)


def average_directions(scores: Iterable[DirectionScore]) -> float:
    """Unweighted arithmetic mean over (src, tgt) directions."""
    scores = list(scores)
    if not scores:
        raise ValidationError("no direction scores to average")
    check_distinct_directions(scores)
    return math.fsum(s.value for s in scores) / len(scores)
