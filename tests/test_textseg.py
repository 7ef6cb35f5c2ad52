"""Segmentation tests: losslessness, prefix slicing, unit counts."""

from __future__ import annotations

import re
import statistics

import pytest
from hypothesis import given, strategies as st

from reformkit.errors import UsageError, ValidationError
from reformkit.textseg import (
    KIND_CODEPOINTS,
    KIND_WHITESPACE,
    Segmenter,
    count_units,
    read_sidecar_counts,
    segment,
    take_prefix,
    take_suffix,
)

# Independent oracle: count maximal runs of non-separator characters via
# re.split, a different mechanism than the implementation's finditer.
_SEP_CLASS = re.compile(r"[\s་༌]+")


def _oracle_word_count(s: str) -> int:
    return sum(1 for chunk in _SEP_CLASS.split(s) if chunk)


def _unit_texts(seg) -> list[str]:
    return [seg.source[start:end] for start, _, end in seg.units]


def test_four_word_sentence():
    seg = segment("the quick brown fox")
    assert len(seg.units) == 4
    assert _unit_texts(seg) == ["the ", "quick ", "brown ", "fox"]


def test_empty_string():
    assert segment("").units == ()
    assert count_units("") == 0


def test_tibetan_tsheg_units():
    s = "བཀྲ་ཤིས་བདེ་ལེགས"
    seg = segment(s)
    # 3 interior tshegs bound 4 syllable units; cross-check with the
    # independent run-counting oracle.
    assert s.count("་") == 3
    assert len(seg.units) == 4
    assert len(seg.units) == _oracle_word_count(s)


def test_trailing_tsheg_attaches_to_last_unit():
    s = "ཁ་བ་"
    seg = segment(s)
    assert len(seg.units) == _oracle_word_count(s) == 2
    assert _unit_texts(seg)[-1] == "བ་"


def test_whitespace_kind_ignores_tsheg():
    s = "བཀྲ་ཤིས་བདེ་ལེགས"
    assert count_units(s, Segmenter(KIND_WHITESPACE)) == 1


def test_codepoints_kind():
    seg = segment("ab c", Segmenter(KIND_CODEPOINTS))
    assert _unit_texts(seg) == ["a", "b", " ", "c"]


def test_take_prefix_two_words():
    seg = segment("the quick brown fox")
    assert take_prefix(seg, 2) == "the quick"


def test_take_prefix_bounds():
    seg = segment("the quick brown fox")
    assert take_prefix(seg, 0) == ""
    assert take_prefix(seg, 4) == "the quick brown fox"
    with pytest.raises(UsageError):
        take_prefix(seg, 5)
    with pytest.raises(UsageError):
        take_prefix(seg, -1)


def test_take_suffix():
    seg = segment("the quick brown fox")
    assert take_suffix(seg, 0) == ""
    assert take_suffix(seg, 1) == "fox"
    assert take_suffix(seg, 2) == "brown fox"
    assert take_suffix(seg, 4) == "the quick brown fox"
    with pytest.raises(UsageError):
        take_suffix(seg, 5)


def test_count_units_basics():
    assert count_units("a b c") == 3
    assert count_units("  padded   words  ") == 2


def test_mean_median_against_recount():
    # 1000 synthetic sentences with varying word counts; the oracle is a
    # plain str.split recount, not the segmenter.
    sentences = []
    for i in range(1000):
        n_words = (i % 17) + 1
        sentences.append(" ".join(f"w{i}x{j}" for j in range(n_words)))
    lengths = [count_units(s) for s in sentences]
    oracle = [len(s.split()) for s in sentences]
    assert lengths == oracle
    assert statistics.mean(lengths) == statistics.mean(oracle)
    assert statistics.median(lengths) == statistics.median(oracle)


_text = st.text(
    alphabet=st.sampled_from("ab ཀ་\t\n"),
    max_size=40,
)


@given(_text)
def test_units_tile_the_string(s):
    seg = segment(s)
    pos = 0
    for start, core_end, end in seg.units:
        assert start == pos
        assert start <= core_end <= end
        pos = end
    assert pos == len(s)
    assert "".join(_unit_texts(seg)) == s


@given(_text)
def test_full_prefix_is_identity(s):
    seg = segment(s)
    assert take_prefix(seg, len(seg.units)) == s


@given(_text)
def test_prefix_monotone(s):
    seg = segment(s)
    previous = ""
    for k in range(len(seg.units) + 1):
        current = take_prefix(seg, k)
        assert current.startswith(previous)
        previous = current


@given(_text)
def test_unit_count_matches_run_oracle(s):
    seg = segment(s)
    expected = _oracle_word_count(s)
    if expected == 0 and s:
        expected = 1  # separator-only input keeps one unit for losslessness
    assert len(seg.units) == expected


def test_segmenter_validation():
    with pytest.raises(ValidationError):
        Segmenter("sentencepiece")
    with pytest.raises(ValidationError):
        Segmenter("external_counts")


def test_sidecar_counts(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text("3\n14\n7\n", encoding="utf-8")
    assert read_sidecar_counts(path) == [3, 14, 7]


def test_sidecar_counts_rejects_garbage(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text("3\nnope\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="line 2"):
        read_sidecar_counts(path)
    path.write_text("3\n-1\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="line 2"):
        read_sidecar_counts(path)
