"""Corpus-level BLEU and chrF++ plus multi-direction averaging.

Both metrics aggregate sufficient statistics over the whole corpus before
computing the final score (micro averaging), so they are invariant under
reordering of sentence pairs. Scores live on the conventional 0-100 scale.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

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
        if self.metric not in ("bleu", "chrfpp"):
            raise ValidationError(f"unknown metric: {self.metric!r}")
        if self.max_ngram < 1:
            raise ValidationError("max_ngram must be >= 1")
        if self.smoothing not in (SMOOTHING_NONE, SMOOTHING_ADD_K):
            raise ValidationError(f"unknown smoothing: {self.smoothing!r}")
        if self.smoothing == SMOOTHING_ADD_K and self.smoothing_k <= 0:
            raise ValidationError("smoothing_k must be > 0")
        if self.char_n < 1:
            raise ValidationError("char_n must be >= 1")
        if self.word_n < 0:
            raise ValidationError("word_n must be >= 0")
        if self.beta <= 0:
            raise ValidationError("beta must be > 0")


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


def _check_parallel(hyps: Sequence[str], refs: Sequence[str]) -> None:
    if len(hyps) != len(refs):
        raise ValidationError(f"{len(hyps)} hypotheses vs {len(refs)} references")
    if not hyps:
        raise ValidationError("cannot score an empty corpus")


def _ngram_counts(seq: str | list[str], n: int) -> Counter:
    """n-gram counts keyed by substrings of a string or tuples of tokens.

    Unigrams of a token list are keyed by the tokens themselves; both sides
    of a comparison are counted the same way, so only the keys' type differs.
    """
    if n == 1:
        return Counter(seq)
    if isinstance(seq, str):
        return Counter([seq[i : i + n] for i in range(len(seq) - n + 1)])
    return Counter(zip(*[seq[i:] for i in range(n)]))


def _add_order_stats(stats: list[list[int]], hyp: str | list[str], ref: str | list[str]) -> None:
    """Add one sentence pair's [clipped matches, hyp total, ref total] to
    ``stats[n - 1]`` for every order n = 1..len(stats)."""
    for n, cell in enumerate(stats, 1):
        hyp_total = max(len(hyp) - n + 1, 0)
        ref_total = max(len(ref) - n + 1, 0)
        cell[1] += hyp_total
        cell[2] += ref_total
        if hyp_total and ref_total:
            ref_counts = _ngram_counts(ref, n).get
            matched = 0
            for gram, count in _ngram_counts(hyp, n).items():
                ref_count = ref_counts(gram, 0)
                matched += count if count < ref_count else ref_count
            cell[0] += matched


def bleu(hyps: Sequence[str], refs: Sequence[str], cfg: ScoreConfig | None = None) -> float:
    """Corpus BLEU: clipped modified n-gram precisions under a brevity penalty.

    When the longest reference has fewer than max_ngram tokens the n-gram
    order is reduced to that length, so short-sentence corpora are scored
    over the orders they can actually support instead of collapsing to 0.
    """
    cfg = cfg or ScoreConfig(metric="bleu")
    _check_parallel(hyps, refs)
    max_ref_len = max(len(r.split()) for r in refs)
    effective_n = max(1, min(cfg.max_ngram, max_ref_len))

    stats = [[0, 0, 0] for _ in range(effective_n)]  # matched, hyp total, ref total
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hyps, refs):
        htok = hyp.split()
        rtok = ref.split()
        hyp_len += len(htok)
        ref_len += len(rtok)
        _add_order_stats(stats, htok, rtok)

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
    _check_parallel(hyps, refs)
    char_stats = [[0, 0, 0] for _ in range(cfg.char_n)]  # matched, hyp total, ref total
    word_stats = [[0, 0, 0] for _ in range(cfg.word_n)]

    for hyp, ref in zip(hyps, refs):
        hwords = hyp.split()
        rwords = ref.split()
        _add_order_stats(char_stats, "".join(hwords), "".join(rwords))
        _add_order_stats(word_stats, hwords, rwords)

    precisions = []
    recalls = []
    for matched, hyp_total, ref_total in char_stats + word_stats:
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


def score_direction(
    src: str, tgt: str, hyps: Sequence[str], refs: Sequence[str], cfg: ScoreConfig
) -> DirectionScore:
    return DirectionScore(src=src, tgt=tgt, value=score(hyps, refs, cfg), n_sentences=len(hyps))


def average_directions(scores: Iterable[DirectionScore]) -> float:
    """Unweighted arithmetic mean over (src, tgt) directions."""
    scores = list(scores)
    if not scores:
        raise ValidationError("no direction scores to average")
    seen = set()
    for s in scores:
        key = (s.src, s.tgt)
        if key in seen:
            raise ValidationError(f"duplicate direction: {s.src}-{s.tgt}")
        seen.add(key)
    return math.fsum(s.value for s in scores) / len(scores)
