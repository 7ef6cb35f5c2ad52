"""Kernel tests: scaffolding shapes, pivot alignment, masking statistics."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, strategies as st

from reformkit.corpus import Language, SentenceRecord, TranslationExample
from reformkit.errors import AlignmentError, ValidationError
from reformkit.reformulate import (
    ScaffoldFormat,
    baseline,
    mask_tokens,
    mips_reform,
    mips_scaffold,
    parse_reform,
    parse_scaffold,
    pose,
    prefix_suffix,
    span_mask,
    span_start_probability,
)

TIB = Language("bod_Tibt")
ENG = Language("eng_Latn")
DEU = Language("deu_Latn")
FRA = Language("fra_Latn")

SENTINEL_RE = re.compile(r"<extra_id_(\d+)>")


class ScriptedRng:
    """random.Random stand-in that replays a fixed list of draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def _ex(source="ཀ་ཁ", target="hello world"):
    return TranslationExample(TIB, ENG, source, target)


def test_baseline_identity():
    out = baseline(_ex())
    assert out.input_text == "ཀ་ཁ"
    assert out.target_text == "hello world"
    assert out.tag == "baseline"


def test_baseline_with_language_tag():
    fmt = ScaffoldFormat(target_lang_tag_template="<2{code}> ")
    out = baseline(_ex(), fmt)
    assert out.input_text == "<2eng_Latn> ཀ་ཁ"


def test_format_validation():
    with pytest.raises(ValidationError):
        ScaffoldFormat(delimiter="")
    with pytest.raises(ValidationError):
        ScaffoldFormat(target_lang_tag_template="<2code> ")


def test_pose_zero_matches_baseline_input():
    fmt = ScaffoldFormat(target_lang_tag_template="<2{code}> ")
    ex = _ex(target="the blessed one spoke")
    assert pose(ex, 0.0, fmt=fmt).input_text == baseline(ex, fmt).input_text


def test_pose_full_prefix():
    ex = _ex(target="the blessed one spoke")
    out = pose(ex, 1.0)
    assert out.input_text == "ཀ་ཁ\nthe blessed one spoke"
    assert out.target_text == "the blessed one spoke"


def test_pose_half_prefix_four_words():
    # k = round(0.5 * 4) = 2 units
    out = pose(_ex(target="the blessed one spoke"), 0.5)
    assert out.input_text == "ཀ་ཁ\nthe blessed"
    assert out.meta["prefix_fraction"] == 0.5
    assert out.tag == "pose"


def test_pose_rounds_half_up():
    # 3 words, u = 0.5: k = round(1.5) = 2, not banker's 1
    out = pose(_ex(target="one two three"), 0.5)
    assert out.input_text == "ཀ་ཁ\none two"


def test_pose_rejects_bad_fraction():
    with pytest.raises(ValidationError):
        pose(_ex(), 1.2)
    with pytest.raises(ValidationError):
        pose(_ex(), -0.1)


@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=1, max_value=12),
)
def test_pose_scaffold_is_target_prefix(u, n_words):
    target = " ".join(f"w{i}" for i in range(n_words))
    out = pose(_ex(target=target), u)
    assert out.target_text == target
    scaffold = out.input_text[len("ཀ་ཁ") :]
    if scaffold:
        assert scaffold.startswith("\n")
        assert target.startswith(scaffold[1:])


def test_prefix_suffix_slicing():
    # u=0.5 on 6 words gives k=3; r=1/3 puts 1 unit in front, 2 in back
    out = prefix_suffix(_ex(target="a b c d e f"), 0.5, 1 / 3)
    assert out.input_text == "ཀ་ཁ\na\ne f"
    assert out.target_text == "a b c d e f"
    assert out.tag == "prefix_suffix"


def test_prefix_suffix_all_front_equals_pose():
    ex = _ex(target="a b c d e f")
    assert prefix_suffix(ex, 1.0, 1.0).input_text == pose(ex, 1.0).input_text


def test_prefix_suffix_zero_is_baseline_shape():
    ex = _ex(target="a b c d e f")
    assert prefix_suffix(ex, 0.0, 0.5).input_text == baseline(ex).input_text


@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=1, max_value=10),
)
def test_prefix_suffix_parts_never_overlap(u, r, n_words):
    target = " ".join(f"w{i}" for i in range(n_words))
    out = prefix_suffix(_ex(target=target), u, r)
    parts = out.input_parts[1:]
    # reconstructing more units than the target has would mean overlap
    total = sum(len(p.split()) for p in parts)
    assert total <= n_words
    for part in parts:
        assert part in target


_RECORD = SentenceRecord(
    id=7,
    texts={
        "deu_Latn": "Hallo Welt",
        "fra_Latn": "Bonjour le monde",
        "eng_Latn": "Hello world",
        "bod_Tibt": "ཀ་ཁ་ག",
    },
)


def test_parse_appends_pivot():
    out = parse_reform(_RECORD, DEU, FRA, ENG)
    assert out.input_text == "Hallo Welt\nHello world"
    assert out.target_text == "Bonjour le monde"
    assert out.tag == "parse"
    assert out.meta["scaffold_langs"] == ["eng_Latn"]
    assert out.meta["sentence_id"] == 7


def test_parse_pivot_source_falls_back():
    out = parse_reform(_RECORD, ENG, FRA, ENG)
    assert out.tag == "baseline"
    assert out.input_text == "Hello world"
    assert out.meta["parse_fallback"] is True


def test_parse_pivot_target_falls_back():
    out = parse_reform(_RECORD, DEU, ENG, ENG)
    assert out.tag == "baseline"
    assert out.input_text == "Hallo Welt"
    assert out.target_text == "Hello world"
    assert out.meta["parse_fallback"] is True


def test_parse_missing_pivot_text():
    record = SentenceRecord(id=0, texts={"deu_Latn": "a", "fra_Latn": "b"})
    with pytest.raises(AlignmentError, match="eng_Latn"):
        parse_reform(record, DEU, FRA, ENG)


def test_parse_scaffold_matches_pivot_corpus_wide():
    records = [
        SentenceRecord(
            id=i,
            texts={
                "deu_Latn": f"Satz {i}",
                "fra_Latn": f"Phrase {i}",
                "eng_Latn": f"Sentence {i}",
            },
        )
        for i in range(200)
    ]
    for rec in records:
        out = parse_reform(rec, DEU, FRA, ENG)
        assert out.input_parts[1] == rec.texts["eng_Latn"]


def test_mips_four_languages():
    out = mips_reform(_RECORD, DEU, FRA, ENG, TIB)
    assert out.input_text == "Hallo Welt\nHello world"
    assert out.target_text == "Bonjour le monde\nཀ་ཁ་ག"
    assert out.tag == "mips"
    assert out.meta["scaffold_langs"] == ["eng_Latn", "bod_Tibt"]


def test_mips_rejects_collisions():
    with pytest.raises(ValidationError):
        mips_reform(_RECORD, DEU, FRA, DEU, TIB)
    with pytest.raises(ValidationError):
        mips_reform(_RECORD, DEU, FRA, ENG, FRA)


def test_mips_three_language_record():
    record = SentenceRecord(id=0, texts={"deu_Latn": "a", "fra_Latn": "b", "eng_Latn": "c"})
    # a fourth language can be named but its text is absent
    with pytest.raises(AlignmentError, match="bod_Tibt"):
        mips_reform(record, DEU, FRA, ENG, TIB)


def test_record_kernels_equal_the_example_helpers():
    langs = {lang.code: lang for lang in (TIB, ENG, DEU, FRA)}
    fmt = ScaffoldFormat(delimiter=" | ", target_lang_tag_template="<2{code}> ")
    for src in langs.values():
        for tgt in langs.values():
            if src == tgt:
                continue
            ex = TranslationExample(
                src, tgt, _RECORD.texts[src.code], _RECORD.texts[tgt.code], sentence_id=_RECORD.id
            )
            want = parse_reform(_RECORD, src, tgt, ENG, fmt)
            assert parse_scaffold(ex, ENG, _RECORD.texts["eng_Latn"], fmt) == want
            aux_in, aux_out = (lang for code, lang in langs.items() if code not in (src.code, tgt.code))
            want = mips_reform(_RECORD, src, tgt, aux_in, aux_out, fmt)
            got = mips_scaffold(
                ex, aux_in, aux_out, _RECORD.texts[aux_in.code], _RECORD.texts[aux_out.code], fmt
            )
            assert got == want


def test_mask_numbering_left_to_right():
    draws = [0.9] * 10
    draws[2] = 0.01
    draws[7] = 0.01
    ex = _ex(target="t", source="u0 u1 u2 u3 u4 u5 u6 u7 u8 u9")
    out = mask_tokens(ex, 0.1, ScriptedRng(draws))
    assert out.input_text == "u0 u1 <extra_id_0> u3 u4 u5 u6 <extra_id_1> u8 u9"
    assert out.target_text == "t"
    assert out.meta["masked_units"] == 2
    assert out.meta["mask_rate"] == pytest.approx(0.2)


def test_mask_no_hits_leaves_input_unchanged():
    ex = _ex(source="ཁ་བ་ འབབ", target="snow falls")
    out = mask_tokens(ex, 1e-9, random.Random(0))
    assert out.input_text == ex.source_text


def test_mask_realized_rate_concentrates():
    rng = random.Random(11)
    source = " ".join(f"w{i}" for i in range(1000))
    masked = 0
    for _ in range(100):
        out = mask_tokens(_ex(source=source, target="t"), 0.1, rng)
        masked += out.meta["masked_units"]
    assert 0.094 <= masked / 100_000 <= 0.106


def test_mask_rejects_bad_rate():
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValidationError):
            mask_tokens(_ex(), bad, random.Random(0))
    with pytest.raises(ValidationError):
        mask_tokens(_ex(), 0.1, random.Random(0), sentinel_template="<mask>")


def test_mask_deterministic_under_seed():
    ex = _ex(source=" ".join(f"w{i}" for i in range(50)), target="t")
    a = mask_tokens(ex, 0.3, random.Random(42))
    b = mask_tokens(ex, 0.3, random.Random(42))
    assert a.input_text == b.input_text


def test_mask_composes_with_pose():
    reformed = pose(_ex(target="the blessed one spoke"), 1.0)
    out = mask_tokens(reformed, 0.3, random.Random(5))
    assert out.target_text == "the blessed one spoke"
    assert out.tag == "mask"


def test_span_mask_degenerate_short_input():
    ex = _ex(source="word", target="t")
    out = span_mask(ex, 0.5, 3, ScriptedRng([0.0, 0.5]))
    assert out.input_text == "<extra_id_0>"
    assert out.meta["span_count"] == 1


def test_span_mask_numbering_dense():
    source = " ".join(f"w{i}" for i in range(200))
    out = span_mask(_ex(source=source, target="t"), 0.25, 3, random.Random(3))
    ids = [int(m) for m in SENTINEL_RE.findall(out.input_text)]
    assert ids == list(range(len(ids)))
    assert len(ids) == out.meta["span_count"] >= 1


def test_span_mask_never_adjacent():
    source = " ".join(f"w{i}" for i in range(500))
    for seed in range(10):
        out = span_mask(_ex(source=source, target="t"), 0.4, 2, random.Random(seed))
        tokens = out.input_text.split()
        for a, b in zip(tokens, tokens[1:]):
            assert not (SENTINEL_RE.fullmatch(a) and SENTINEL_RE.fullmatch(b))


def test_span_mask_statistics():
    rng = random.Random(17)
    source = " ".join(f"w{i}" for i in range(1000))
    masked = spans = 0
    for _ in range(100):
        out = span_mask(_ex(source=source, target="t"), 0.25, 3, rng)
        masked += out.meta["masked_units"]
        spans += out.meta["span_count"]
    assert 0.235 <= masked / 100_000 <= 0.265
    assert 2.7 <= masked / spans <= 3.3


def test_span_mask_mean_one_matches_token_mask_rate():
    source = " ".join(f"w{i}" for i in range(1000))
    rng = random.Random(23)
    span_masked = sum(
        span_mask(_ex(source=source, target="t"), 0.25, 1, rng).meta["masked_units"]
        for _ in range(100)
    )
    rng = random.Random(23)
    token_masked = sum(
        mask_tokens(_ex(source=source, target="t"), 0.25, rng).meta["masked_units"]
        for _ in range(100)
    )
    assert abs(span_masked - token_masked) / 100_000 < 0.02


def test_span_mask_validation():
    with pytest.raises(ValidationError):
        span_mask(_ex(), 0.25, 0, random.Random(0))
    with pytest.raises(ValidationError):
        span_mask(_ex(), 1.0, 3, random.Random(0))
    # with the forced gap unit, spans cover at most mean_span / (mean_span + 1)
    # of the units; a higher rate is rejected rather than silently missed
    with pytest.raises(ValidationError, match="unreachable"):
        span_mask(_ex(), 0.9, 1, random.Random(0))
    with pytest.raises(ValidationError, match="unreachable"):
        span_mask(_ex(), 0.8, 3, random.Random(0))
    span_mask(_ex(), 0.5, 1, random.Random(0))
    span_mask(_ex(), 0.75, 3, random.Random(0))


def test_span_start_probability_closed_form():
    assert span_start_probability(0.25, 3) == pytest.approx(1 / 9)
    # sanity: longer spans need rarer starts for the same masked fraction
    assert span_start_probability(0.25, 5) < span_start_probability(0.25, 2)


def test_masking_never_touches_target():
    ex = _ex(source=" ".join(f"w{i}" for i in range(100)), target="the target stays put")
    for out in (
        mask_tokens(ex, 0.5, random.Random(1)),
        span_mask(ex, 0.5, 2, random.Random(1)),
    ):
        assert out.target_text == "the target stays put"
