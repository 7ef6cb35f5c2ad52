"""Corpus loading, validation, splitting, and round-trip tests."""

from __future__ import annotations

import hashlib
import json
import pickle
import random
import sys
import tempfile
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from reformkit.builder import BuildConfig, build
from reformkit.corpus import (
    BilingualCorpus,
    Language,
    MultiParallelCorpus,
    TranslationExample,
    corpus_digest,
    example_from_record,
    load_bilingual,
    load_manifest,
    load_multiparallel,
    read_lines,
    split,
    write_atomic,
    write_bilingual,
    write_multiparallel,
)
from reformkit.errors import AlignmentError, ReformkitError, UsageError, ValidationError
from reformkit.metrics import ScoreConfig
from reformkit.reformulate import ScaffoldFormat
from reformkit.schedule import SchedulePolicy
from reformkit.synth import synth_bilingual, synth_multiparallel
from reformkit.textseg import Segmenter


def _texts(corpus):
    """The corpus texts as one list per language, read through ``text``."""
    return [[corpus.text(i, code) for i in range(len(corpus))] for code in corpus.codes]


def _write_tsv(path, rows):
    path.write_text("".join(f"{s}\t{t}\n" for s, t in rows), encoding="utf-8")


def test_load_tsv_order_preserved(tmp_path):
    rows = [("ཁ་བ་", "snow"), ("མེ་", "fire"), ("ཆུ་", "water")]
    path = tmp_path / "pairs.tsv"
    _write_tsv(path, rows)
    corpus = load_bilingual(path, "tsv")
    assert len(corpus) == 3
    assert corpus.pairs == tuple(rows)


def test_load_tsv_empty_target_names_line(tmp_path):
    path = tmp_path / "pairs.tsv"
    _write_tsv(path, [("a", "b"), ("c", "   "), ("e", "f")])
    with pytest.raises(ValidationError, match="line 2"):
        load_bilingual(path, "tsv")


def test_load_tsv_wrong_columns(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("only one column\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="line 1"):
        load_bilingual(path, "tsv")


def test_load_jsonl_count_matches_line_count(tmp_path):
    path = tmp_path / "pairs.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for i in range(100):
            fh.write(json.dumps({"source": f"s{i}", "target": f"t{i}"}) + "\n")
    # independent line counter
    with path.open(encoding="utf-8") as fh:
        n_lines = sum(1 for _ in fh)
    corpus = load_bilingual(path, "jsonl")
    assert len(corpus) == n_lines == 100


def test_load_jsonl_rejects_extra_keys(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text('{"source": "a", "target": "b", "score": 1}\n', encoding="utf-8")
    with pytest.raises(ValidationError, match="line 1"):
        load_bilingual(path, "jsonl")


@pytest.mark.parametrize(
    "row, message",
    [
        ('{"source": "a", "target": ', "line 2: invalid JSON"),
        ('{"source": 3, "target": "b"}', "line 2: source/target must be strings"),
        ('["a", "b"]', 'line 2: object must have exactly keys "source" and "target"'),
    ],
)
def test_load_jsonl_malformed_row_names_line(tmp_path, row, message):
    path = tmp_path / "pairs.jsonl"
    path.write_text('{"source": "a", "target": "b"}\n' + row + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_bilingual(path, "jsonl")
    assert str(err.value) == f"{path}: 1 malformed row(s): {message}"


def test_unknown_format(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("a,b\n", encoding="utf-8")
    with pytest.raises(UsageError):
        load_bilingual(path, "csv")


def test_nfc_normalization_applied(tmp_path):
    path = tmp_path / "pairs.tsv"
    decomposed = "café"  # e + combining acute
    _write_tsv(path, [(decomposed, "coffee")])
    corpus = load_bilingual(path, "tsv")
    assert corpus.pairs[0][0] == "café"


def test_bilingual_round_trip(tmp_path):
    rows = [("ett två", "one two"), ("tre", "three")]
    corpus = BilingualCorpus(Language("swe_Latn"), Language("eng_Latn"), tuple(rows))
    assert corpus.pairs == tuple(rows)
    for fmt in ("tsv", "jsonl"):
        out = tmp_path / f"rt.{fmt}"
        write_bilingual(corpus, out, fmt)
        again = load_bilingual(out, fmt, corpus.source_lang, corpus.target_lang)
        # stored as one column per language, like any multi-parallel corpus
        assert again.codes == ("swe_Latn", "eng_Latn")
        assert set(again.columns) == {"swe_Latn", "eng_Latn"}
        assert again.text(0, "swe_Latn") == "ett två"
        assert again.pairs == corpus.pairs
        assert again == corpus and corpus_digest(again) == corpus_digest(corpus)


def test_bilingual_lines_split_at_lf_only(tmp_path):
    tsv = tmp_path / "pairs.tsv"
    tsv.write_bytes("a\rb\tc\r\nd\u2028e\tf\x0cg\n".encode("utf-8"))
    assert load_bilingual(tsv, "tsv").pairs == (("a\rb", "c"), ("d\u2028e", "f\x0cg"))
    jsonl = tmp_path / "pairs.jsonl"
    jsonl.write_bytes(b'{"source": "a",\r"target": "b"}\r\n{"source": "c", "target": "d"}')
    assert load_bilingual(jsonl, "jsonl").pairs == (("a", "b"), ("c", "d"))


def test_task_and_corpus_kind_must_match(tmp_path):
    bilingual = synth_bilingual(20, seed=1)
    multi = MultiParallelCorpus(bilingual.languages, _texts(bilingual))
    assert isinstance(bilingual, MultiParallelCorpus)
    for task, corpus, message in (
        ("multiparallel", bilingual, "multiparallel task needs a MultiParallelCorpus"),
        ("bilingual", multi, "bilingual task needs a BilingualCorpus"),
    ):
        cfg = BuildConfig(task=task, reform="none", n_train=10, batch_size=5)
        with pytest.raises(ValidationError, match=message):
            build(corpus, cfg, tmp_path / task)
        assert not (tmp_path / task).exists()


def _toy_multi(tmp_path, n=10, codes=("aaa_Latn", "bbb_Latn", "ccc_Latn", "ddd_Latn")):
    manifest = [
        {"code": code, "in_pretrain": i < 2, "pretrain_size": 1000 * (i + 1)}
        for i, code in enumerate(codes)
    ]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    for code in codes:
        lines = "".join(f"{code} sentence {i}\n" for i in range(n))
        (tmp_path / f"{code}.txt").write_text(lines, encoding="utf-8")
    return tmp_path


def test_load_multiparallel(tmp_path):
    corpus = load_multiparallel(_toy_multi(tmp_path))
    assert len(corpus) == 10
    assert len(corpus.languages) == 4
    for i in range(len(corpus)):
        for code in corpus.codes:
            assert corpus.text(i, code) == f"{code} sentence {i}"
    # manifest metadata preserved
    assert corpus.language("aaa_Latn").in_pretrain is True
    assert corpus.language("ccc_Latn").in_pretrain is False
    assert corpus.language("ddd_Latn").pretrain_size == 4000
    # record ids dense
    assert list(corpus.ids) == list(range(10))


def test_load_multiparallel_via_manifest_path(tmp_path):
    _toy_multi(tmp_path)
    corpus = load_multiparallel(tmp_path / "manifest.json")
    assert len(corpus) == 10


def test_multiparallel_lines_split_at_lf_only(tmp_path):
    _toy_multi(tmp_path, n=0, codes=("aaa", "bbb", "ccc"))
    (tmp_path / "aaa.txt").write_text("one\rtwo\u2028three\x85four\nfive\x0csix\n", encoding="utf-8")
    (tmp_path / "bbb.txt").write_bytes(b"x\r\ny")  # CRLF, and no final LF
    (tmp_path / "ccc.txt").write_text("p\nq\n", encoding="utf-8")
    corpus = load_multiparallel(tmp_path)
    assert _texts(corpus) == [["one\rtwo\u2028three\x85four", "five\x0csix"], ["x", "y"], ["p", "q"]]
    # empty files make an empty corpus; a lone LF is one empty sentence
    for code in ("aaa", "bbb", "ccc"):
        (tmp_path / f"{code}.txt").write_text("", encoding="utf-8")
    assert len(load_multiparallel(tmp_path)) == 0
    (tmp_path / "ccc.txt").write_text("\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="line 1: empty sentence"):
        load_multiparallel(tmp_path)


def _lf_only_oracle(path):
    lines = path.read_bytes().decode("utf-8").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def test_read_lines_matches_an_lf_only_oracle(tmp_path):
    # lines cross the 64 KiB block boundaries; one spans several blocks
    rng = random.Random(5)
    alphabet = "ab \t\r\x0c\x85\u2028\U0001f600"
    lines = ["".join(rng.choices(alphabet, k=rng.randrange(3000))) for _ in range(150)]
    lines.insert(70, "x" * 200_000)
    path = tmp_path / "lines.txt"
    for text in ("\n".join(lines) + "\n", "\n".join(lines), "\r\n".join(lines), "", "\n", "a"):
        path.write_bytes(text.encode("utf-8"))
        assert list(read_lines(path)) == _lf_only_oracle(path)
    assert len(list(read_lines(path))) == 1


def test_multiparallel_truncated_manifest_is_a_validation_error(tmp_path):
    manifest = _toy_multi(tmp_path) / "manifest.json"
    manifest.write_text(manifest.read_text(encoding="utf-8")[:-5], encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^{manifest}: line 1: invalid JSON: "):
        load_multiparallel(tmp_path)


def test_multiparallel_length_mismatch(tmp_path):
    _toy_multi(tmp_path)
    short = tmp_path / "ccc_Latn.txt"
    lines = short.read_text(encoding="utf-8").splitlines()[:9]
    short.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(AlignmentError) as err:
        load_multiparallel(tmp_path)
    message = str(err.value)
    assert "ccc_Latn" in message and "9" in message and "10" in message


def test_multiparallel_empty_line_is_hard_error(tmp_path):
    _toy_multi(tmp_path)
    target = tmp_path / "bbb_Latn.txt"
    lines = target.read_text(encoding="utf-8").splitlines()
    lines[4] = "   "
    target.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(ValidationError, match="line 5"):
        load_multiparallel(tmp_path)


def test_multiparallel_non_utf8_names_file_and_line(tmp_path):
    _toy_multi(tmp_path)
    target = tmp_path / "bbb_Latn.txt"
    lines = target.read_bytes().splitlines(keepends=True)
    lines[6] = b"bbb \xe0\x80 sentence\n"
    target.write_bytes(b"".join(lines))
    with pytest.raises(ValidationError, match=f"{target}: line 7: not valid UTF-8"):
        load_multiparallel(tmp_path)


def test_language_lookup_is_not_part_of_equality_or_repr(tmp_path):
    corpus = load_multiparallel(_toy_multi(tmp_path))
    same = MultiParallelCorpus(corpus.languages, _texts(corpus))
    assert same == corpus and repr(same) == repr(corpus)
    assert "_by_code" not in repr(corpus)
    with pytest.raises(ValidationError, match="unknown language: zzz"):
        corpus.language("zzz")


def test_multiparallel_round_trip(tmp_path):
    src_dir = tmp_path / "a"
    src_dir.mkdir()
    corpus = load_multiparallel(_toy_multi(src_dir))
    out = tmp_path / "b"
    write_multiparallel(corpus, out)
    again = load_multiparallel(out)
    assert again.codes == corpus.codes
    assert _texts(again) == _texts(corpus) and again.ids == corpus.ids
    assert corpus_digest(again) == corpus_digest(corpus)


def test_split_sizes_exact_and_disjoint(tmp_path):
    corpus = load_multiparallel(_toy_multi(tmp_path, n=100))
    train, valid, test = split(corpus, (80, 10, 10), seed=7)
    assert (len(train), len(valid), len(test)) == (80, 10, 10)
    texts = lambda c: {c.text(i, "aaa_Latn") for i in range(len(c))}
    assert texts(train) | texts(valid) | texts(test) <= texts(corpus)
    assert not texts(train) & texts(valid)
    assert not texts(train) & texts(test)
    assert not texts(valid) & texts(test)
    # ids re-densified per split
    assert list(valid.ids) == list(range(10))


def test_split_deterministic_and_seed_sensitive(tmp_path):
    corpus = load_multiparallel(_toy_multi(tmp_path, n=100))
    a1, _, _ = split(corpus, (80, 10, 10), seed=7)
    a2, _, _ = split(corpus, (80, 10, 10), seed=7)
    b1, _, _ = split(corpus, (80, 10, 10), seed=8)
    key = lambda c: [c.text(i, "aaa_Latn") for i in range(len(c))]
    assert key(a1) == key(a2)
    assert key(a1) != key(b1)


def test_split_oversized_errors(tmp_path):
    corpus = load_multiparallel(_toy_multi(tmp_path, n=100))
    with pytest.raises(ValidationError):
        split(corpus, (90, 10, 10), seed=1)


def test_split_bilingual(tmp_path):
    pairs = tuple((f"s{i}", f"t{i}") for i in range(50))
    corpus = BilingualCorpus(Language("bod_Tibt"), Language("eng_Latn"), pairs)
    digest = corpus_digest(corpus)
    train, valid, test = parts = split(corpus, (40, 5, 5), seed=3)
    assert (len(train), len(valid), len(test)) == (40, 5, 5)
    # each part is a BilingualCorpus of its own, hashed anew
    for part in parts:
        assert type(part) is BilingualCorpus and part.languages == corpus.languages
        assert corpus_digest(part) != digest
    union = set(train.pairs) | set(valid.pairs) | set(test.pairs)
    assert union <= set(pairs)
    assert len(union) == 50


def test_language_invariants():
    with pytest.raises(ValidationError):
        Language("")
    with pytest.raises(ValidationError):
        Language("eng_Latn", pretrain_size=-1)


def test_duplicate_language_codes_rejected():
    lang = Language("eng_Latn")
    with pytest.raises(ValidationError):
        MultiParallelCorpus((lang, lang), ())


def test_translation_example_invariants():
    eng = Language("eng_Latn")
    deu = Language("deu_Latn")
    with pytest.raises(ValidationError):
        TranslationExample(eng, eng, "a", "b")
    with pytest.raises(ValidationError):
        TranslationExample(eng, deu, "a", "")
    ex = TranslationExample(eng, deu, "hello", "hallo", sentence_id=4)
    assert ex.sentence_id == 4


def test_example_from_record(tmp_path):
    corpus = load_multiparallel(_toy_multi(tmp_path))
    ex = example_from_record(corpus, 3, "aaa_Latn", "bbb_Latn")
    assert ex.source_text == "aaa_Latn sentence 3"
    assert ex.target_text == "bbb_Latn sentence 3"
    assert ex.sentence_id == 3
    with pytest.raises(ValidationError, match="zzz_Latn"):
        example_from_record(corpus, 3, "aaa_Latn", "zzz_Latn")


def test_example_from_record_ids():
    eng, deu = Language("eng"), Language("deu")
    bilingual = BilingualCorpus(eng, deu, [("hello", "hallo"), ("cat", "Katze")])
    ex = example_from_record(bilingual, 1, "eng", "deu")
    assert (ex.source_text, ex.target_text, ex.sentence_id) == ("cat", "Katze", None)
    corpus = MultiParallelCorpus((eng, deu), (["a", "c"], ["b", "d"]), ids=[40, 12])
    ex = example_from_record(corpus, 1, "deu", "eng")
    assert (ex.source_text, ex.target_text, ex.sentence_id) == ("d", "c", 12)


def test_record_missing_language_rejected():
    langs = (Language("aaa"), Language("bbb"))
    with pytest.raises(AlignmentError, match="bbb"):
        MultiParallelCorpus(langs, (["x"], []))
    # ids keep the order they are given in
    ids = (10, 3, 77)
    corpus = MultiParallelCorpus(langs, ([f"a{i}" for i in ids], [f"b{i}" for i in ids]), ids)
    assert len(corpus) == 3 and list(corpus.ids) == list(ids)
    assert corpus.text(2, "bbb") == "b77"
    with pytest.raises(ValidationError, match="unknown language: zzz"):
        corpus.text(0, "zzz")


def _with_texts(corpus, edits):
    """A copy of a multi-parallel corpus with {(record index, code): text} applied."""
    texts = _texts(corpus)
    for (i, code), text in edits.items():
        texts[corpus.codes.index(code)][i] = text
    return MultiParallelCorpus(corpus.languages, texts, corpus.ids)


def _small_multi():
    langs = (Language("aaa_Latn"), Language("bbb_Tibt", True, 50), Language("ccc_Hans"))
    texts = (["ab c", "de", "fgh"], ["ཁ་བ་", "མེ་", "ཆུ་"], ["雪山", "火", "水"])
    return MultiParallelCorpus(langs, texts)


def test_digest_sees_a_character_moved_across_a_text_boundary():
    corpus = _small_multi()
    # the column joins to the same string, only the boundary moves
    moved = _with_texts(corpus, {(0, "aaa_Latn"): "ab", (1, "aaa_Latn"): " cde"})
    assert "".join(moved.text(i, "aaa_Latn") for i in range(len(moved))) == "".join(
        corpus.text(i, "aaa_Latn") for i in range(len(corpus))
    )
    assert corpus_digest(moved) != corpus_digest(corpus)
    pairs = (("ab", "cd"), ("ef", "gh"))
    bi = BilingualCorpus(Language("src"), Language("tgt"), pairs)
    for other in (
        (("a", "bcd"), ("ef", "gh")),  # within a pair, source to target
        (("ab", "cde"), ("f", "gh")),  # target of one pair to the source of the next
        (("abe", "cd"), ("f", "gh")),  # source of one pair to the next source
    ):
        assert corpus_digest(BilingualCorpus(bi.source_lang, bi.target_lang, other)) != corpus_digest(bi)


def test_digest_sees_two_languages_swapping_texts():
    corpus = _small_multi()
    aaa, bbb, ccc = _texts(corpus)
    swapped = MultiParallelCorpus(corpus.languages, (ccc, bbb, aaa))
    assert corpus_digest(swapped) != corpus_digest(corpus)
    # one record only
    one = _with_texts(
        corpus, {(2, "aaa_Latn"): corpus.text(2, "bbb_Tibt"), (2, "bbb_Tibt"): "fgh"}
    )
    assert corpus_digest(one) != corpus_digest(corpus)
    bi = BilingualCorpus(Language("src"), Language("tgt"), (("ab", "cd"), ("ef", "gh")))
    flipped = BilingualCorpus(bi.source_lang, bi.target_lang, (("cd", "ab"), ("gh", "ef")))
    assert corpus_digest(flipped) != corpus_digest(bi)


def test_digest_sees_any_one_text_changing():
    corpus = _small_multi()
    digests = {corpus_digest(corpus)}
    for i in range(len(corpus)):
        for code in corpus.codes:
            text = corpus.text(i, code)
            for changed in (text + "x", text[:-1] or "y", "Z" + text[1:]):
                digests.add(corpus_digest(_with_texts(corpus, {(i, code): changed})))
    assert len(digests) == 1 + 3 * 3 * 3
    bi = BilingualCorpus(Language("src"), Language("tgt"), (("ab", "cd"), ("ef", "gh")))
    digests = {corpus_digest(bi)}
    for i in range(2):
        for side in range(2):
            pairs = [list(p) for p in bi.pairs]
            pairs[i][side] += "x"
            digests.add(corpus_digest(BilingualCorpus(bi.source_lang, bi.target_lang, map(tuple, pairs))))
    assert len(digests) == 5


def test_digest_is_pinned():
    # the layout spelled out: header, then per column its code, the text
    # count and code-point lengths as big-endian 8-byte words, and its texts;
    # a bilingual corpus is hashed as the two-language corpus it is
    bi = BilingualCorpus(Language("src"), Language("tgt"), (("ab", "cd"), ("éf", "gh")))
    words = lambda *ns: b"".join(n.to_bytes(8, "big") for n in ns)
    layout = (
        b"multiparallel\x00src|0|0\x00tgt|0|0\x00"
        + b"src\x00" + words(2, 2, 2) + "abéf".encode("utf-8")
        + b"tgt\x00" + words(2, 2, 2) + b"cdgh"
    )
    assert corpus_digest(bi) == hashlib.sha256(layout).hexdigest()
    empty = MultiParallelCorpus((Language("bbb"), Language("aaa", True, 7)), ((), ()))
    layout = b"multiparallel\x00bbb|0|0\x00aaa|1|7\x00" + b"aaa\x00" + words(0) + b"bbb\x00" + words(0)
    assert corpus_digest(empty) == hashlib.sha256(layout).hexdigest()
    # recorded when the digest became one block per language column
    assert corpus_digest(synth_multiparallel(4, 12, seed=3)) == (
        "e8e0d4214119f89a86977a45003638be7a7a48feb66e9742eb9627f3e59431f6"
    )
    # recorded when a bilingual corpus became two columns, hashed in the same layout
    assert corpus_digest(synth_bilingual(12, seed=3)) == (
        "05de067798050ac9a76571fa42296795a6f82a84ef20f71c007161b881d27ae1"
    )


def test_loaded_hand_built_and_split_corpora_are_equal_values(tmp_path):
    loaded = load_multiparallel(_toy_multi(tmp_path, n=40))
    texts = [[f"{code} sentence {i}" for i in range(40)] for code in loaded.codes]
    built = MultiParallelCorpus(loaded.languages, texts)
    assert built == loaded and repr(built) == repr(loaded)
    parts = split(loaded, (30, 6, 4), seed=5)
    assert split(built, (30, 6, 4), seed=5) == parts
    # a part is the same value as its texts packed by hand
    for part in parts:
        by_hand = MultiParallelCorpus(loaded.languages, _texts(part))
        assert by_hand == part
        assert corpus_digest(by_hand) == corpus_digest(part)
    for corpus in (loaded, built, *parts):
        again = pickle.loads(pickle.dumps(corpus))
        assert again == corpus
        assert corpus_digest(again) == corpus_digest(corpus)
    assert corpus_digest(built) == corpus_digest(loaded)
    assert parts[0] != loaded and corpus_digest(parts[0]) != corpus_digest(loaded)
    # the same texts in another language order are another corpus value
    assert MultiParallelCorpus(tuple(reversed(loaded.languages)), texts[::-1]) != loaded


def test_missing_or_empty_text_keeps_its_error(tmp_path):
    langs = (Language("aaa"), Language("bbb"))
    with pytest.raises(AlignmentError) as err:
        MultiParallelCorpus(langs, (["y", "x"], ["z", ""]), ids=[0, 4])
    assert str(err.value) == "record 4: missing text for language bbb"
    _toy_multi(tmp_path)
    target = tmp_path / "ccc_Latn.txt"
    lines = target.read_text(encoding="utf-8").splitlines()
    lines[2] = ""
    target.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_multiparallel(tmp_path)
    assert str(err.value) == f"{target}: line 3: empty sentence"


def test_hand_built_lone_surrogate_is_rejected():
    with pytest.raises(ValidationError) as err:
        BilingualCorpus(Language("a"), Language("b"), [("x", "y"), ("p\ud800", "q")])
    assert str(err.value) == "record 1: a text is not valid UTF-8"
    langs = (Language("aaa"), Language("bbb"))
    with pytest.raises(ValidationError, match="^record 3: bbb text is not valid UTF-8$"):
        MultiParallelCorpus(langs, (["x", "z"], ["y", "w\udfff"]), ids=[7, 3])
    # the scan reads the column in blocks; a surrogate past the first still
    # names its own record
    texts = ["é" * 1000] * 70 + ["x\ud800"]
    with pytest.raises(ValidationError, match="^record 70: bbb text is not valid UTF-8$"):
        MultiParallelCorpus(langs, (["a"] * 71, texts))
    # a character outside the BMP is one code point, not a surrogate pair
    astral = BilingualCorpus(Language("a"), Language("b"), [("x\U0001F600", "y")])
    assert astral.pairs == (("x\U0001F600", "y"),)


@pytest.mark.parametrize(
    "texts, ids, error, message",
    [
        ((["x", "y"], ["z", 5]), [7, 3], ValidationError, "record 3: bbb text must be a str, got int"),
        ((["x", "y"], ["z", ""]), [7, 3], AlignmentError, "record 3: missing text for language bbb"),
        ((["x", "y"], ["z"]), None, AlignmentError, "language bbb has 1 sentences, expected 2 (from aaa)"),
        ((["x", "y"], ["z", "w"]), [7], AlignmentError, "language aaa has 2 sentences, expected 1 (from ids)"),
        ((["x", "y"], ["z", "w"]), [7, 7], ValidationError, "record id 7 is repeated"),
        ((["x", "y"],), None, ValidationError, "texts must give one iterable of str per language, 2 in all"),
        ((["x"], ["z"], ["w"]), None, ValidationError, "texts must give one iterable of str per language, 2 in all"),
        (("xy", "zw"), None, ValidationError, "texts must give one iterable of str per language, 2 in all"),
    ],
    ids=["not-str", "empty", "short-column", "ids-length", "repeated-id", "one-column", "three-columns", "str-column"],
)
def test_constructor_rejects_bad_texts_and_ids(texts, ids, error, message):
    with pytest.raises(error) as err:
        MultiParallelCorpus((Language("aaa"), Language("bbb")), texts, ids)
    assert str(err.value) == message


def test_given_record_ids_fit_64_bits_and_are_copied():
    langs = (Language("aaa"),)
    ids = array("q", [-(2**63), 2**63 - 1])
    corpus = MultiParallelCorpus(langs, (["x", "y"],), ids)
    ids[0] = 0
    assert list(corpus.ids) == [-(2**63), 2**63 - 1]
    # bytes are an iterable of small ints, not 8-byte words
    assert list(MultiParallelCorpus(langs, (["x", "y"],), b"\x07\x03").ids) == [7, 3]
    for ids in ([2**63, 0], [1.5, 0], ["a", "b"]):
        with pytest.raises(ValidationError, match=r"^record ids must be integers in \[-2\*\*63, 2\*\*63\)"):
            MultiParallelCorpus(langs, (["x", "y"],), ids)


def test_pairs_of_another_length_are_rejected():
    src, tgt = Language("a"), Language("b")
    assert len(BilingualCorpus(src, tgt, [])) == 0
    for pairs in ([("x", "y"), ("z",)], [("x", "y", "z")], [None]):
        with pytest.raises(ValidationError):
            BilingualCorpus(src, tgt, pairs)
    # a str of two characters is no pair either
    for pairs in (["ab", "cd"], [("x", "y"), "cd"], "abcd", (pair for pair in ["ab"]), 5):
        with pytest.raises(ValidationError) as err:
            BilingualCorpus(src, tgt, pairs)
        assert str(err.value) == "pairs must be (source, target) texts"
    assert BilingualCorpus(src, tgt, (pair for pair in [("x", "y")])).pairs == (("x", "y"),)


_CORPUS_TEXT = st.one_of(
    # survives a write and a load: no LF, no edge space, already NFC
    st.lists(st.sampled_from(["a", "é", "ཀ", "雪", "\U0001F600", "b\tc"]), min_size=1, max_size=3).map(" ".join),
    st.sampled_from(["", "\ud800", "x\udfff y", 0, None, b"x"]),
)


@given(
    columns=st.lists(st.lists(_CORPUS_TEXT, max_size=4), min_size=1, max_size=3),
    ids=st.none() | st.lists(st.integers(-2, 2), max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_constructor_builds_what_it_is_given_or_raises_a_typed_error(columns, ids):
    langs = [Language(code) for code in ("aaa", "bbb", "ccc")[: len(columns)]]
    try:
        corpus = MultiParallelCorpus(langs, columns, ids)
    except ReformkitError:
        return
    assert _texts(corpus) == columns
    assert list(corpus.ids) == (list(range(len(corpus))) if ids is None else ids)
    with tempfile.TemporaryDirectory() as tmp:
        write_multiparallel(corpus, tmp)
        assert corpus_digest(load_multiparallel(tmp)) == corpus_digest(corpus)


def test_failed_write_leaves_the_target_and_no_temp_file(tmp_path):
    target = tmp_path / "c.tsv"
    write_atomic(target, (b"old\n",))

    def chunks():
        yield b"new\n"
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        write_atomic(target, chunks())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.tsv"]
    assert target.read_bytes() == b"old\n"


def test_loaded_corpus_is_smaller_than_its_texts_as_strings(tmp_path):
    write_multiparallel(synth_multiparallel(24, 400, seed=6), tmp_path)
    tracemalloc.start()
    try:
        corpus = load_multiparallel(tmp_path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    as_strings = sum(
        sys.getsizeof(corpus.text(i, code)) for i in range(len(corpus)) for code in corpus.codes
    )
    assert held < as_strings


@pytest.mark.parametrize(
    "entry, what",
    [
        ({"code": "aaa", "in_pretrain": "false"}, "in_pretrain must be a bool, got 'false'"),
        ({"code": "aaa", "in_pretrain": 1}, "in_pretrain must be a bool, got 1"),
        ({"code": "aaa", "pretrain_size": 3.7}, "pretrain_size must be an int, got 3.7"),
        ({"code": "aaa", "pretrain_size": True}, "pretrain_size must be an int, got True"),
        ({"code": "aaa", "pretrain_size": "12"}, "pretrain_size must be an int, got '12'"),
        ({"code": 5}, "code must be a str, got 5"),
        ({"code": ""}, "language code must be nonempty"),
        ({"code": "aaa", "pretrain_size": -3}, "aaa: pretrain_size must be >= 0"),
        ({"code": "eng_Latn", "in_pretrain": True}, "duplicate code eng_Latn (first at entry 0)"),
        ({"code": "aaa", "script": "Latn"}, "unknown language keys: ['script']"),
        ({"in_pretrain": True}, "language missing required keys: ['code']"),
        (["aaa"], "config key language must be an object"),
    ],
)
def test_manifest_values_are_cast_strictly(tmp_path, entry, what):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"code": "eng_Latn"}, entry]), encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_manifest(path)
    assert str(err.value) == f"{path}: entry 1: {what}"


def test_manifest_defaults_and_typed_values_load(tmp_path):
    path = tmp_path / "manifest.json"
    entries = [{"code": "eng_Latn", "in_pretrain": True, "pretrain_size": 12}, {"code": "bod_Tibt"}]
    path.write_text(json.dumps(entries), encoding="utf-8")
    assert load_manifest(path) == [Language("eng_Latn", True, 12), Language("bod_Tibt", False, 0)]
    # a null value counts as absent, as in a build config
    path.write_text(json.dumps([{"code": "aaa", "in_pretrain": None, "pretrain_size": None}]), encoding="utf-8")
    assert load_manifest(path) == [Language("aaa")]


_WRONG_TYPES = [
    (Language, (5,), {}, "code must be a str, got 5"),
    (Language, ("x",), {"in_pretrain": 1}, "in_pretrain must be a bool, got 1"),
    (Language, ("x",), {"pretrain_size": "5"}, "pretrain_size must be an int, got '5'"),
    (ScaffoldFormat, (), {"delimiter": 5}, "delimiter must be a str, got 5"),
    (ScaffoldFormat, (), {"target_lang_tag_template": None}, "target_lang_tag_template must be a str, got None"),
    (Segmenter, (["whitespace"],), {}, "kind must be a str, got ['whitespace']"),
    (SchedulePolicy, ("mix", "10"), {}, "total_steps must be an int, got '10'"),
    (ScoreConfig, (), {"beta": "2"}, "beta must be a float, got '2'"),
    (ScoreConfig, (), {"word_n": 2.0}, "word_n must be an int, got 2.0"),
    (BuildConfig, ("bilingual", "pose", "10", 5), {}, "n_train must be an int, got '10'"),
    (BuildConfig, ("bilingual", "pose", 10, 5), {"seg": "whitespace"}, "seg must be a Segmenter, got 'whitespace'"),
]


@pytest.mark.parametrize(
    "cls, args, kwargs, message",
    _WRONG_TYPES,
    ids=[f"{cls.__name__}.{message.split()[0]}" for cls, _, _, message in _WRONG_TYPES],
)
def test_a_config_field_of_the_wrong_type_is_a_validation_error(cls, args, kwargs, message):
    with pytest.raises(ValidationError) as err:
        cls(*args, **kwargs)
    assert str(err.value) == message
