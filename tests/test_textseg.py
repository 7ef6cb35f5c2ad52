"""Segmentation tests: losslessness, prefix slicing, unit counts."""

from __future__ import annotations

import random
import re
import statistics
import sys

import pytest
from hypothesis import given, strategies as st

from reformkit.errors import UsageError, ValidationError
from reformkit.textseg import (
    KIND_CODEPOINTS,
    KIND_WHITESPACE,
    SEGMENTER_KINDS,
    Segmenter,
    count_units,
    read_sidecar_counts,
    segment,
    take_prefix,
    take_suffix,
)

# Independent oracle: count maximal runs of non-separator characters via
# re.split, a different mechanism than the implementation's str.split.
_SEP_CLASS = re.compile(r"[\s་༌]+")

# Offset oracle: one pattern per kind, each match one unit. Group 1 is the
# word core, the rest trailing separators; matches are greedy and adjacent,
# so leading separators land on the first match, which starts at 0.
_UNIT_PATTERNS = {
    "unicode_words": re.compile(r"[\s་༌]*([^\s་༌]+)[\s་༌]*"),
    "whitespace": re.compile(r"\s*(\S+)\s*"),
    "codepoints": re.compile(r"(.)", re.DOTALL),
}


def _oracle_units(s: str, kind: str) -> tuple[tuple[int, int, int], ...]:
    units = tuple((m.start(), m.end(1), m.end()) for m in _UNIT_PATTERNS[kind].finditer(s))
    if s and not units:
        units = ((0, len(s), len(s)),)
    return units


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


# Word characters and every kind of separator: Unicode whitespace (tab,
# newline, NBSP, ideographic space) and the two tsheg marks, which only
# unicode_words treats as separators.
_COUNT_ALPHABET = "abcXYZé\u0f40\u0f0b\u0f0c \t\n\u00a0\u3000"
_SEPARATORS = " \t\n\u00a0\u3000\u0f0b\u0f0c"


@pytest.mark.parametrize("kind", SEGMENTER_KINDS)
def test_count_units_equals_segment_unit_count(kind):
    seg = Segmenter(kind)
    rng = random.Random(f"count_units:{kind}")
    texts = ["", " ", "\u0f0b", "\u3000\t\u00a0\n"]
    texts += ["".join(rng.choices(_SEPARATORS, k=rng.randint(1, 6))) for _ in range(1_000)]
    texts += [
        "".join(rng.choices(_COUNT_ALPHABET, k=rng.randint(0, 24))) for _ in range(100_000)
    ]
    for s in texts:
        assert count_units(s, seg) == len(segment(s, seg).units), (kind, s)


def test_isspace_is_regex_whitespace():
    # textseg splits on str.isspace where the offset oracle matches \s, so
    # the two must agree on every code point; the tsheg marks are neither
    regex_space = re.compile(r"\s").fullmatch
    for cp in range(sys.maxunicode + 1):
        c = chr(cp)
        assert c.isspace() == (regex_space(c) is not None), hex(cp)
    assert not any(c.isspace() for c in "\u0f0b\u0f0c")


# The separators above plus U+001C (a control char that is whitespace) and
# U+0085 (NEL), a combining mark (U+0301) and letters.
_OFFSET_ALPHABET = _COUNT_ALPHABET + "\u001c\u0085\u0301"


@given(st.text(alphabet=_OFFSET_ALPHABET, max_size=40), st.sampled_from(SEGMENTER_KINDS))
def test_units_equal_the_regex_oracle(s, kind):
    assert segment(s, Segmenter(kind)).units == _oracle_units(s, kind)


def test_separator_only_string_is_one_unit():
    assert count_units(" \u0f0b\u3000") == len(segment(" \u0f0b\u3000").units) == 1
    assert count_units("\u0f0b\u0f0c", Segmenter(KIND_WHITESPACE)) == 1  # tsheg is a word here
    assert count_units(" \n", Segmenter(KIND_WHITESPACE)) == 1
    assert count_units(" \n", Segmenter(KIND_CODEPOINTS)) == 2


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


def test_sidecar_counts_split_at_lf_only(tmp_path):
    # a form feed is whitespace inside the line, not a line break
    path = tmp_path / "counts.txt"
    path.write_text("3\n\f4\n", encoding="utf-8")
    assert read_sidecar_counts(path) == [3, 4]
    path.write_bytes(b"3\r\n4")
    assert read_sidecar_counts(path) == [3, 4]


def test_sidecar_counts_rejects_garbage(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text("3\nnope\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="line 2"):
        read_sidecar_counts(path)
    path.write_text("3\n-1\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="line 2"):
        read_sidecar_counts(path)
    path.write_text("3\n\n4\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        read_sidecar_counts(path)
    assert str(err.value) == f"{path}: line 2: empty count"


# word characters and one of each separator class: ASCII space, tab and
# newline, NBSP, U+3000, the U+001C file separator and both tsheg marks
_cut_text = st.text(
    alphabet=st.sampled_from("ab\u0f40 \t\n\u00a0\u3000\u001c\u0f0b\u0f0c"),
    max_size=40,
)


@given(_cut_text, st.sampled_from(SEGMENTER_KINDS))
def test_count_and_cuts_equal_slices_at_the_unit_offsets(s, kind):
    seg = Segmenter(kind)
    units = segment(s, seg).units
    n = len(units)
    # a fresh view for the count and the cuts, which read no offsets
    view = segment(s, seg)
    assert len(view) == n
    for k in range(n + 1):
        prefix = "" if k == 0 else s if k == n else s[: units[k - 1][1]]
        suffix = "" if k == 0 else s[units[n - k][0] :]
        assert take_prefix(view, k) == prefix, (kind, s, k)
        assert take_suffix(view, k) == suffix, (kind, s, k)
    assert "units" not in vars(view)
