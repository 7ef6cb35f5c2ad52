"""Metric tests against brute-force oracles and hand-computed values.

The oracles below recompute both metrics from first principles (explicit
n-gram enumeration, exact Fraction arithmetic) in a deliberately different
style from the implementation, so shared bugs are unlikely.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reformkit.errors import ValidationError
from reformkit.metrics import (
    DirectionScore,
    ScoreConfig,
    _add_order_stats,
    average_directions,
    bleu,
    check_distinct_directions,
    chrfpp,
    score,
)
from reformkit.synth import synth_multiparallel


def _grams(seq, n):
    return [tuple(seq[i : i + n]) for i in range(len(seq) - n + 1)]


def oracle_bleu(hyps, refs, max_ngram=4, add_k=None):
    eff = min(max_ngram, max(len(r.split()) for r in refs))
    eff = max(eff, 1)
    log_sum = 0.0
    for n in range(1, eff + 1):
        matched, total = 0, 0
        for h, r in zip(hyps, refs):
            hg = _grams(h.split(), n)
            rg = _grams(r.split(), n)
            for g in set(hg):
                matched += min(hg.count(g), rg.count(g))
            total += len(hg)
        if add_k is not None:
            p = Fraction(matched) + Fraction(add_k)
            p /= Fraction(total) + Fraction(add_k)
        else:
            if matched == 0 or total == 0:
                return 0.0
            p = Fraction(matched, total)
        log_sum += math.log(p)
    c = sum(len(h.split()) for h in hyps)
    r_len = sum(len(r.split()) for r in refs)
    if c == 0:
        return 0.0
    bp = 1.0 if c > r_len else math.exp(1 - Fraction(r_len, c))
    return 100.0 * bp * math.exp(log_sum / eff)


def oracle_chrfpp(hyps, refs, char_n=6, word_n=2, beta=2):
    orders = [("c", n) for n in range(1, char_n + 1)] + [("w", n) for n in range(1, word_n + 1)]
    precisions, recalls = [], []
    for kind, n in orders:
        matched, h_total, r_total = 0, 0, 0
        for h, r in zip(hyps, refs):
            hseq = "".join(h.split()) if kind == "c" else h.split()
            rseq = "".join(r.split()) if kind == "c" else r.split()
            hg = _grams(hseq, n)
            rg = _grams(rseq, n)
            for g in set(hg):
                matched += min(hg.count(g), rg.count(g))
            h_total += len(hg)
            r_total += len(rg)
        if h_total + r_total == 0:
            continue
        precisions.append(Fraction(matched, h_total) if h_total else Fraction(0))
        recalls.append(Fraction(matched, r_total) if r_total else Fraction(0))
    if not precisions:
        return 0.0
    avg_p = sum(precisions) / len(precisions)
    avg_r = sum(recalls) / len(recalls)
    if avg_p == 0 and avg_r == 0:
        return 0.0
    b2 = Fraction(beta) ** 2
    return float(100 * (1 + b2) * avg_p * avg_r / (b2 * avg_p + avg_r))


def test_bleu_identity_is_100():
    hyps = ["the cat sat on the mat", "a stitch in time saves nine"]
    assert bleu(hyps, hyps) == 100.0


def test_bleu_short_reference_identity_is_100():
    # references shorter than 4 words drop to their own max order
    assert bleu(["the cat"], ["the cat"]) == 100.0


def test_bleu_no_overlap_is_zero():
    assert bleu(["xx yy zz"], ["aa bb cc dd"]) == 0.0


def test_bleu_clipped_counts_hand_case():
    hyps, refs = ["the the the cat"], ["the cat sat"]
    # p3 = 0 with no smoothing
    assert bleu(hyps, refs) == 0.0
    # add-1: orders reduce to 3 (ref has 3 tokens); p = (3/5, 2/4, 1/3),
    # BP = 1 since 4 > 3, so BLEU = 100 * (0.1)^(1/3)
    cfg = ScoreConfig(metric="bleu", smoothing="add_k", smoothing_k=1.0)
    value = bleu(hyps, refs, cfg)
    assert value == pytest.approx(100.0 * 0.1 ** (1 / 3), abs=1e-9)
    assert value == pytest.approx(oracle_bleu(hyps, refs, add_k=1), abs=1e-9)


def test_bleu_brevity_penalty():
    # all n-grams correct but hypothesis is half the reference length
    value = bleu(["the cat sat on"], ["the cat sat on the mat tonight ok"])
    assert value == pytest.approx(oracle_bleu(["the cat sat on"], ["the cat sat on the mat tonight ok"]), abs=1e-9)
    assert 0.0 < value < 100.0


def test_bleu_100_iff_exact_match():
    refs = ["alpha beta gamma delta", "one two three four five"]
    assert bleu(list(refs), refs) == 100.0
    assert bleu(["alpha beta gamma delta", "one two three four six"], refs) < 100.0


def test_chrfpp_identity_is_100():
    hyps = ["Bonjour le monde", "ཁ་བ་ འབབ"]
    assert chrfpp(hyps, hyps) == 100.0


def test_chrfpp_empty_hypotheses_score_zero():
    assert chrfpp(["", ""], ["some text", "more text"]) == 0.0


def test_chrfpp_hand_case_cat_hat():
    # included orders: char 1..3 and word 1; avgP = avgR = 7/24
    value = chrfpp(["cat"], ["hat"])
    assert value == pytest.approx(100 * 7 / 24, abs=1e-9)
    assert value == pytest.approx(oracle_chrfpp(["cat"], ["hat"]), abs=1e-9)


_words = st.lists(st.sampled_from("ab bc ca aa cb ba ac".split()), min_size=0, max_size=8)
_corpus = st.lists(
    st.tuples(_words, _words.filter(lambda w: len(w) > 0)),
    min_size=1,
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(_corpus)
def test_bleu_matches_oracle_on_random_corpora(pairs):
    hyps = [" ".join(h) for h, _ in pairs]
    refs = [" ".join(r) for _, r in pairs]
    assert bleu(hyps, refs) == pytest.approx(oracle_bleu(hyps, refs), abs=1e-9)
    cfg = ScoreConfig(metric="bleu", smoothing="add_k", smoothing_k=1.0)
    assert bleu(hyps, refs, cfg) == pytest.approx(oracle_bleu(hyps, refs, add_k=1), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(_corpus)
def test_chrfpp_matches_oracle_on_random_corpora(pairs):
    hyps = [" ".join(h) for h, _ in pairs]
    refs = [" ".join(r) for _, r in pairs]
    assert chrfpp(hyps, refs) == pytest.approx(oracle_chrfpp(hyps, refs), abs=1e-9)


# Tibetan syllables with tsheg, Devanagari with vowel signs and virama, CJK
# without spaces, and ASCII; joined by runs of mixed whitespace. Sentences
# are often shorter than char_n, and either side may be empty.
_rich_words = st.sampled_from(
    ["ab", "a", "bca", "ཁ་བ་", "འབབ", "བཀྲ་ཤིས་", "नमस्ते", "दुनिया", "कि", "猫が座った", "猫", "東京"]
)
_rich_space = st.sampled_from(["", " ", "  ", "\t", " \t ", "\t\t"])
_rich_sentence = st.lists(st.tuples(_rich_space, _rich_words), max_size=6).map(
    lambda parts: "".join(space + word for space, word in parts)
)
_rich_corpus = st.lists(st.tuples(_rich_sentence, _rich_sentence), min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(
    _rich_corpus,
    st.integers(1, 8),
    st.integers(0, 3),
    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
)
def test_chrfpp_matches_oracle_on_rich_corpora(pairs, char_n, word_n, beta):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    cfg = ScoreConfig(char_n=char_n, word_n=word_n, beta=beta)
    expected = oracle_chrfpp(hyps, refs, char_n=char_n, word_n=word_n, beta=beta)
    assert chrfpp(hyps, refs, cfg) == pytest.approx(expected, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(_rich_corpus, st.integers(1, 5))
def test_bleu_matches_oracle_on_rich_corpora(pairs, max_ngram):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    cfg = ScoreConfig(metric="bleu", max_ngram=max_ngram)
    expected = oracle_bleu(hyps, refs, max_ngram=max_ngram)
    assert bleu(hyps, refs, cfg) == pytest.approx(expected, abs=1e-9)
    cfg = ScoreConfig(metric="bleu", max_ngram=max_ngram, smoothing="add_k", smoothing_k=0.5)
    expected = oracle_bleu(hyps, refs, max_ngram=max_ngram, add_k=Fraction(1, 2))
    assert bleu(hyps, refs, cfg) == pytest.approx(expected, abs=1e-9)


def _clip_branch(hseq, n):
    hg = _grams(hseq, n)
    return "hyp distinct" if len(set(hg)) == len(hg) else "hyp repeats"


def _brute_order_stats(hseq, rseq, max_n):
    stats = []
    for n in range(1, max_n + 1):
        hg, rg = _grams(hseq, n), _grams(rseq, n)
        matched = sum(min(hg.count(g), rg.count(g)) for g in set(hg))
        stats.append([matched, len(hg), len(rg)])
    return stats


# Each case takes the named branch at order 2, for character and for word
# grams alike; of the cases where the hypothesis repeats a gram, the first two
# have distinct reference grams. "aaaa" against "aaa" overlaps itself: both
# sides repeat "aa", and at order 3 only the hypothesis repeats "aaa".
@pytest.mark.parametrize(
    "hyp, ref, branch",
    [
        ("a b c d", "a b a b", "hyp distinct"),
        ("a b c d a", "a b a b c d", "hyp distinct"),
        ("a b a b", "a b c d", "hyp repeats"),
        ("c a b a b", "a b c", "hyp repeats"),
        ("a a a a", "a a a", "hyp repeats"),
        ("a b a b a", "b a b a b a", "hyp repeats"),
    ],
)
def test_clipped_matches_equal_brute_force_on_every_branch(hyp, ref, branch):
    for hseq, rseq, max_n in (
        ("".join(hyp.split()), "".join(ref.split()), 7),
        (hyp.split(), ref.split(), 5),
    ):
        assert _clip_branch(hseq, 2) == branch
        stats = [[0, 0, 0] for _ in range(max_n)]
        _add_order_stats(stats, hseq, rseq)
        assert stats == _brute_order_stats(hseq, rseq, max_n)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_metrics_match_oracles_over_tiny_alphabets(data):
    # Two or three letters make repeated and self-overlapping grams common,
    # so every clipping branch runs at every order.
    alphabet = data.draw(st.sampled_from(["ab", "abc"]))
    sentence = st.lists(st.text(alphabet, min_size=1, max_size=4), max_size=8).map(" ".join)
    pairs = data.draw(st.lists(st.tuples(sentence, sentence), min_size=1, max_size=4))
    char_n = data.draw(st.integers(1, 7))
    word_n = data.draw(st.integers(0, 3))
    max_ngram = data.draw(st.integers(1, 5))
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    cfg = ScoreConfig(char_n=char_n, word_n=word_n)
    expected = oracle_chrfpp(hyps, refs, char_n=char_n, word_n=word_n)
    assert chrfpp(hyps, refs, cfg) == pytest.approx(expected, abs=1e-9)
    for add_k in (None, 1):
        cfg = ScoreConfig(
            metric="bleu", max_ngram=max_ngram, smoothing="none" if add_k is None else "add_k"
        )
        expected = oracle_bleu(hyps, refs, max_ngram=max_ngram, add_k=add_k)
        assert bleu(hyps, refs, cfg) == pytest.approx(expected, abs=1e-9)


def _pinned_directions():
    """Two directions of a seeded synthetic corpus: references in the target
    language, hypotheses with words dropped or taken from the source."""
    corpus = synth_multiparallel(8, 200, seed=1)
    rng = random.Random(11)
    directions = []
    for src, tgt in (("l03_Arab", "eng_Latn"), ("eng_Latn", "l04_Tibt")):
        hyps, refs = [], []
        for i in range(len(corpus)):
            ref = corpus.text(i, tgt)
            words = [w for w in ref.split() if rng.random() > 0.2]
            words = [rng.choice(corpus.text(i, src).split()) if rng.random() < 0.2 else w for w in words]
            hyps.append(" ".join(words))
            refs.append(ref)
        directions.append((hyps, refs))
    hand = (
        ["ཁ་བ་ འབབ  གི", "नमस्ते दुनिया", "猫が 座った", "", "the the the cat"],
        ["ཁ་བ་ འབབ", "नमस्ते\tसंसार", "猫は座った", "a b", "the cat sat"],
    )
    return directions + [hand]


# Scores of _pinned_directions() recorded from a known-good implementation:
# any change to the counting must leave every float bit-identical.
# Columns: chrF++ default, BLEU default, BLEU add-1, chrF++ with char_n=4,
# word_n=3, beta=1, BLEU with max_ngram=2.
_PINNED_SCORES = [
    (64.99088852849798, 33.40238303320151, 33.4550882546357, 64.52888305501376, 50.186599081297736),
    (67.03657874338445, 35.082052211905214, 35.133927497619, 66.1514474180446, 52.66867463418053),
    (49.03987560010446, 0.0, 36.05623925768521, 43.3344453302339, 36.037498507822356),
]


def test_scores_are_pinned():
    add_1 = ScoreConfig(metric="bleu", smoothing="add_k", smoothing_k=1.0)
    odd_chrfpp = ScoreConfig(char_n=4, word_n=3, beta=1.0)
    odd_bleu = ScoreConfig(metric="bleu", max_ngram=2)
    got = [
        (
            chrfpp(hyps, refs),
            bleu(hyps, refs),
            bleu(hyps, refs, add_1),
            chrfpp(hyps, refs, odd_chrfpp),
            bleu(hyps, refs, odd_bleu),
        )
        for hyps, refs in _pinned_directions()
    ]
    assert got == _PINNED_SCORES


@settings(max_examples=30, deadline=None)
@given(_corpus, st.randoms(use_true_random=False))
def test_metrics_permutation_invariant(pairs, rnd):
    hyps = [" ".join(h) for h, _ in pairs]
    refs = [" ".join(r) for _, r in pairs]
    order = list(range(len(pairs)))
    rnd.shuffle(order)
    shuffled_h = [hyps[i] for i in order]
    shuffled_r = [refs[i] for i in order]
    assert chrfpp(shuffled_h, shuffled_r) == chrfpp(hyps, refs)
    assert bleu(shuffled_h, shuffled_r) == bleu(hyps, refs)


def test_parallel_checks():
    with pytest.raises(ValidationError):
        bleu(["a"], ["a", "b"])
    with pytest.raises(ValidationError):
        bleu([], [])
    with pytest.raises(ValidationError):
        chrfpp([], [])


def test_score_dispatch():
    hyps, refs = ["the cat"], ["the cat"]
    assert score(hyps, refs, ScoreConfig(metric="bleu")) == 100.0
    assert score(hyps, refs, ScoreConfig(metric="chrfpp")) == 100.0


def test_score_config_validation():
    with pytest.raises(ValidationError):
        ScoreConfig(metric="ter")
    with pytest.raises(ValidationError):
        ScoreConfig(max_ngram=0)
    with pytest.raises(ValidationError):
        ScoreConfig(smoothing="exp")
    with pytest.raises(ValidationError):
        ScoreConfig(smoothing="add_k", smoothing_k=0.0)
    with pytest.raises(ValidationError):
        ScoreConfig(beta=0.0)
    for knobs, message in (
        ({"char_n": 0}, "char_n must be >= 1"),
        ({"word_n": -1}, "word_n must be >= 0"),
    ):
        with pytest.raises(ValidationError) as err:
            ScoreConfig(**knobs)
        assert str(err.value) == message


def test_score_config_casts_its_fields():
    with pytest.raises(ValidationError) as err:
        ScoreConfig(beta="2")
    assert str(err.value) == "beta must be a float, got '2'"
    cfg = ScoreConfig(beta=2)
    assert cfg.beta == 2.0 and type(cfg.beta) is float
    assert cfg == ScoreConfig(beta=2.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_score_config_takes_only_finite_knobs(value):
    for key in ("smoothing_k", "beta"):
        with pytest.raises(ValidationError) as err:
            ScoreConfig(metric="bleu", smoothing="add_k", **{key: value})
        assert str(err.value) == f"{key} must be finite and > 0"


def test_direction_score_validation():
    with pytest.raises(ValidationError):
        DirectionScore("eng", "eng", 50.0, 10)
    with pytest.raises(ValidationError):
        DirectionScore("eng", "deu", 101.0, 10)
    with pytest.raises(ValidationError):
        DirectionScore("eng", "deu", 50.0, 0)


def test_average_directions_mean():
    scores = [
        DirectionScore("a", "b", 10.0, 5),
        DirectionScore("b", "c", 20.0, 5),
        DirectionScore("c", "a", 30.0, 5),
    ]
    assert average_directions(scores) == pytest.approx(20.0)
    assert average_directions(scores[:1]) == 10.0


def test_average_directions_41412_constant():
    codes = [f"l{i:03d}" for i in range(204)]
    scores = [
        DirectionScore(a, b, 25.1, 1) for a in codes for b in codes if a != b
    ]
    assert len(scores) == 204 * 203 == 41412
    value = average_directions(scores)
    # exact-arithmetic oracle over the same floats
    exact = Fraction(0)
    for s in scores:
        exact += Fraction(s.value)
    exact /= len(scores)
    assert value == pytest.approx(float(exact), abs=1e-9)
    assert value == pytest.approx(25.1, abs=1e-9)


def test_average_directions_rejects_duplicates():
    scores = [DirectionScore("a", "b", 10.0, 5), DirectionScore("a", "b", 20.0, 5)]
    with pytest.raises(ValidationError):
        average_directions(scores)
    with pytest.raises(ValidationError):
        average_directions([])


def test_check_distinct_directions_names_the_first_duplicate():
    scores = [
        DirectionScore("aaa", "bbb", 10.0, 5),
        DirectionScore("bbb", "aaa", 50.0, 5),
        DirectionScore("bbb", "ccc", 20.0, 5),
    ]
    check_distinct_directions(scores)
    scores += [DirectionScore("bbb", "ccc", 30.0, 5), DirectionScore("aaa", "bbb", 90.0, 5)]
    with pytest.raises(ValidationError) as err:
        check_distinct_directions(scores)
    assert str(err.value) == "duplicate direction: bbb-ccc"
