"""Loading, validation, and splitting of bilingual and multi-parallel corpora.

On-disk conventions:
  - bilingual TSV: two tab-separated columns, no header, UTF-8, LF endings
  - bilingual JSONL: one object per line with keys "source" and "target"
  - multi-parallel: one UTF-8 file per language ("<code>.txt", one sentence
    per line) next to a "manifest.json" listing
    {"code", "in_pretrain", "pretrain_size"} per language

All text is NFC-normalized and edge-trimmed at load. Empty-after-trim text
is a hard error, never a silent drop, so alignment is preserved exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import struct
import unicodedata
from array import array
from dataclasses import dataclass, field
from itertools import accumulate
from operator import sub
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import AlignmentError, UsageError, ValidationError


@dataclass(frozen=True)
class Language:
    code: str
    in_pretrain: bool = False
    pretrain_size: int = 0

    def __post_init__(self) -> None:
        if not self.code:
            raise ValidationError("language code must be nonempty")
        if self.pretrain_size < 0:
            raise ValidationError(f"{self.code}: pretrain_size must be >= 0")


@dataclass(frozen=True)
class SentenceRecord:
    id: int
    texts: dict[str, str]


def _column(texts: Sequence[str]) -> tuple[str, array]:
    """One language column: the texts joined, and the code-point offset of
    each text's start plus the end of the last."""
    return "".join(texts), array("q", accumulate(map(len, texts), initial=0))


@dataclass(frozen=True, init=False)
class MultiParallelCorpus:
    """Aligned texts stored as one column per language: ``columns`` maps a
    code to its texts joined into one ``str`` and an ``array('q')`` of their
    code-point offsets, and ``ids`` holds the record ids by position. A text
    is read by slicing its column, so no object exists per text. Under
    ``fork`` a build worker then reads the parent's pages without writing a
    reference count into each, and the corpus takes about the size of its
    text in memory. Record ``i`` is read as ``ids[i]`` and ``text(i, code)``.

    ``MultiParallelCorpus(languages, records)`` packs ``SentenceRecord``s
    into columns, keeping only the texts of the corpus languages; ``ids``
    and ``columns`` instead give the columns directly.
    """

    languages: tuple[Language, ...]
    ids: array = field(repr=False)
    columns: dict[str, tuple[str, array]] = field(repr=False)
    # code -> Language, derived from ``languages``
    _by_code: dict[str, Language] = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        languages: Sequence[Language],
        records: Iterable[SentenceRecord] = (),
        *,
        ids: array | None = None,
        columns: dict[str, tuple[str, array]] | None = None,
    ) -> None:
        languages = tuple(languages)
        codes = [lang.code for lang in languages]
        if len(set(codes)) != len(codes):
            raise ValidationError("duplicate language codes in corpus")
        if columns is None:
            ids = array("q")
            texts: dict[str, list[str]] = {code: [] for code in codes}
            for rec in records:
                ids.append(rec.id)
                for code in codes:
                    text = rec.texts.get(code)
                    if not text:
                        raise AlignmentError(f"record {rec.id}: missing text for language {code}")
                    texts[code].append(text)
            columns = {code: _column(texts[code]) for code in codes}
        elif ids is None or set(columns) != set(codes):
            raise ValidationError("columns need ids and one column per corpus language")
        object.__setattr__(self, "languages", languages)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "_by_code", {lang.code: lang for lang in languages})

    @classmethod
    def _from_columns(cls, languages: Sequence[Language], n: int, columns: dict):
        """A corpus of this class over ``columns`` of ``n`` texts each, with
        ids ``0 .. n-1``, made without running a subclass's ``__init__``."""
        corpus = object.__new__(cls)
        MultiParallelCorpus.__init__(corpus, languages, ids=array("q", range(n)), columns=columns)
        return corpus

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(lang.code for lang in self.languages)

    def language(self, code: str) -> Language:
        try:
            return self._by_code[code]
        except KeyError:
            raise ValidationError(f"unknown language: {code}") from None

    def text(self, index: int, code: str) -> str:
        """The text in language ``code`` of the record at position ``index``
        (``0 <= index < len(self)``)."""
        try:
            column, offsets = self.columns[code]
        except KeyError:
            raise ValidationError(f"unknown language: {code}") from None
        return column[offsets[index] : offsets[index + 1]]


class BilingualCorpus(MultiParallelCorpus):
    """A two-language corpus, ``languages == (source_lang, target_lang)``,
    that builds in one direction: source to target. Each text of ``pairs``
    must be nonempty, as in any record."""

    def __init__(
        self, source_lang: Language, target_lang: Language, pairs: Iterable[tuple[str, str]]
    ) -> None:
        codes = (source_lang.code, target_lang.code)
        records = (SentenceRecord(i, dict(zip(codes, pair))) for i, pair in enumerate(pairs))
        super().__init__((source_lang, target_lang), records)

    @property
    def source_lang(self) -> Language:
        return self.languages[0]

    @property
    def target_lang(self) -> Language:
        return self.languages[1]

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        """The (source, target) texts, built from the columns on each access."""
        source, target = self.codes
        return tuple((self.text(i, source), self.text(i, target)) for i in range(len(self)))


@dataclass(frozen=True)
class TranslationExample:
    source_lang: Language
    target_lang: Language
    source_text: str
    target_text: str
    sentence_id: int | None = None

    def __post_init__(self) -> None:
        if self.source_lang.code == self.target_lang.code:
            raise ValidationError("source and target language must differ")
        if not self.source_text or not self.target_text:
            raise ValidationError("example texts must be nonempty")


def _utf8_error(path: str | Path) -> ValidationError:
    """The error for a file that does not decode as UTF-8: it names the
    first line that does not."""
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return ValidationError(f"{path}: line {lineno}: not valid UTF-8")
    return ValidationError(f"{path}: not valid UTF-8")


def read_lines(path: str | Path) -> Iterator[str]:
    """The lines of a UTF-8 file, read in 64 KiB blocks. Only LF ends a
    line (``str.splitlines`` also splits at U+2028, U+0085, form feed and a
    lone CR); the CR of a CRLF ending stays on the line, a final line needs
    no LF, and an empty file has no lines. Bad UTF-8 fails with a
    ValidationError once the reader reaches it."""
    try:
        with Path(path).open(encoding="utf-8", newline="\n") as fh:
            tail = ""
            while block := fh.read(1 << 16):
                lines = block.split("\n")
                lines[0] = tail + lines[0]
                tail = lines.pop()
                yield from lines
            if tail:
                yield tail
    except UnicodeDecodeError:
        raise _utf8_error(path) from None


def read_json(path: str | Path):
    """The JSON value in a UTF-8 file; invalid JSON fails with a
    ValidationError naming the line."""
    try:
        return json.loads("\n".join(read_lines(path)))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno}: invalid JSON: {exc.msg}") from None


def write_atomic(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write the byte ``chunks`` to ``<name>.tmp`` beside ``path``, creating
    the directory, then rename it over ``path``: a reader sees the old file
    or the whole new one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def _clean(raw: str) -> str:
    return unicodedata.normalize("NFC", raw.strip())


def load_bilingual(
    path: str | Path,
    fmt: str,
    source_lang: Language | None = None,
    target_lang: Language | None = None,
) -> BilingualCorpus:
    """Load a two-column corpus; rejects malformed rows with their line numbers."""
    path = Path(path)
    if fmt not in ("tsv", "jsonl"):
        raise UsageError(f"unknown bilingual format: {fmt!r}")
    sources: list[str] = []
    targets: list[str] = []
    bad: list[str] = []
    for lineno, line in enumerate(read_lines(path), 1):
        if fmt == "tsv":
            cols = line.split("\t")
            if len(cols) != 2:
                bad.append(f"line {lineno}: expected 2 columns, got {len(cols)}")
                continue
            src, tgt = cols
        else:
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                bad.append(f"line {lineno}: invalid JSON")
                continue
            if not isinstance(obj, dict) or set(obj) != {"source", "target"}:
                bad.append(f'line {lineno}: object must have exactly keys "source" and "target"')
                continue
            src, tgt = obj["source"], obj["target"]
            if not isinstance(src, str) or not isinstance(tgt, str):
                bad.append(f"line {lineno}: source/target must be strings")
                continue
            try:  # an escaped lone surrogate decodes but cannot be written
                src.encode("utf-8"), tgt.encode("utf-8")
            except UnicodeEncodeError:
                bad.append(f"line {lineno}: source/target is not valid UTF-8 text")
                continue
        src, tgt = _clean(src), _clean(tgt)
        if not src or not tgt:
            bad.append(f"line {lineno}: empty source or target after trimming")
            continue
        sources.append(src)
        targets.append(tgt)
    if bad:
        raise ValidationError(f"{path}: {len(bad)} malformed row(s): " + "; ".join(bad))
    languages = (source_lang or Language("src"), target_lang or Language("tgt"))
    columns = {lang.code: _column(texts) for lang, texts in zip(languages, (sources, targets))}
    return BilingualCorpus._from_columns(languages, len(sources), columns)


def write_bilingual(corpus: BilingualCorpus, path: str | Path, fmt: str) -> None:
    if fmt not in ("tsv", "jsonl"):
        raise UsageError(f"unknown bilingual format: {fmt!r}")
    lines = (
        f"{src}\t{tgt}\n"
        if fmt == "tsv"
        else json.dumps({"source": src, "target": tgt}, ensure_ascii=False) + "\n"
        for src, tgt in corpus.pairs
    )
    write_atomic(path, (line.encode("utf-8") for line in lines))


def load_manifest(path: str | Path) -> list[Language]:
    """Read a JSON array of {"code", "in_pretrain", "pretrain_size"}: a
    nonempty string, a bool and an int (not a bool). Each code appears once."""
    from .schedule import cast_scalar  # schedule imports this module

    data = read_json(path)
    if not isinstance(data, list) or not data:
        raise ValidationError(f"{path}: manifest must be a nonempty JSON array")
    langs = []
    first_at: dict[str, int] = {}
    for index, entry in enumerate(data):
        if not isinstance(entry, dict) or "code" not in entry:
            raise ValidationError(f'{path}: entry {index}: expected an object with a "code" key')
        code = entry["code"]
        if not isinstance(code, str) or not code:
            raise ValidationError(f"{path}: entry {index}: code must be a nonempty string, got {code!r}")
        if first_at.setdefault(code, index) != index:
            raise ValidationError(
                f"{path}: entry {index}: duplicate code {code} (first at entry {first_at[code]})"
            )
        try:
            in_pretrain = cast_scalar("in_pretrain", bool, entry.get("in_pretrain", False))
            pretrain_size = cast_scalar("pretrain_size", int, entry.get("pretrain_size", 0))
            langs.append(Language(code, in_pretrain, pretrain_size))
        except ValidationError as exc:
            raise ValidationError(f"{path}: entry {index}: {exc}") from None
    return langs


def load_multiparallel(
    path: str | Path,
    languages: Sequence[Language] | None = None,
) -> MultiParallelCorpus:
    """Load aligned one-file-per-language text, checking full alignment.

    ``path`` is either the corpus directory or its manifest file. When
    ``languages`` is given it overrides the manifest.
    """
    path = Path(path)
    if path.is_file():
        directory = path.parent
        manifest_path = path
    else:
        directory = path
        manifest_path = path / "manifest.json"
    if languages is None:
        if not manifest_path.exists():
            raise ValidationError(f"no manifest found at {manifest_path}")
        languages = load_manifest(manifest_path)
    langs = tuple(languages)

    columns: dict[str, tuple[str, array]] = {}
    expected: int | None = None
    expected_from = ""
    for lang in langs:
        lang_file = directory / f"{lang.code}.txt"
        if not lang_file.exists():
            raise ValidationError(f"missing language file: {lang_file}")
        texts = [_clean(raw) for raw in read_lines(lang_file)]
        if not all(texts):
            raise ValidationError(f"{lang_file}: line {texts.index('') + 1}: empty sentence")
        if expected is None:
            expected = len(texts)
            expected_from = lang.code
        elif len(texts) != expected:
            raise AlignmentError(
                f"language {lang.code} has {len(texts)} sentences, "
                f"expected {expected} (from {expected_from})"
            )
        # joined while read, so only one language's texts are objects at once
        columns[lang.code] = _column(texts)

    assert expected is not None
    return MultiParallelCorpus._from_columns(langs, expected, columns)


def write_multiparallel(corpus: MultiParallelCorpus, directory: str | Path) -> None:
    directory = Path(directory)
    manifest = [
        {"code": lang.code, "in_pretrain": lang.in_pretrain, "pretrain_size": lang.pretrain_size}
        for lang in corpus.languages
    ]
    text = json.dumps(manifest, ensure_ascii=False, indent=2) + "\n"
    write_atomic(directory / "manifest.json", (text.encode("utf-8"),))
    for code in corpus.codes:
        lines = (corpus.text(i, code) + "\n" for i in range(len(corpus)))
        write_atomic(directory / f"{code}.txt", (line.encode("utf-8") for line in lines))


def _substream(seed: int, role: str, index: int) -> random.Random:
    """Independent RNG stream for one (role, index); order-free determinism."""
    h = hashlib.blake2b(digest_size=16)
    h.update((seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big"))
    h.update(role.encode("utf-8"))
    h.update(index.to_bytes(8, "big"))
    return random.Random(int.from_bytes(h.digest(), "big"))


def partition(n_items: int, sizes: Sequence[int], seed: int) -> list[list[int]]:
    """Shuffle ``range(n_items)`` under the (seed, "pool") substream and cut
    it into consecutive parts of ``sizes``, each returned sorted."""
    order = list(range(n_items))
    _substream(seed, "pool", 0).shuffle(order)
    parts = []
    start = 0
    for size in sizes:
        parts.append(sorted(order[start : start + size]))
        start += size
    return parts


def split(corpus: MultiParallelCorpus, sizes: tuple[int, int, int], seed: int):
    """Deterministically split into (train, valid, test) of exactly ``sizes``,
    each a corpus of the input's class with ids re-densified."""
    if len(sizes) != 3 or min(sizes) < 0:
        raise ValidationError("split sizes must be three nonnegative counts")
    total = len(corpus)
    if sum(sizes) > total:
        raise ValidationError(f"split sizes {sizes} exceed corpus size {total}")
    return tuple(
        corpus._from_columns(
            corpus.languages,
            len(idx),
            {code: _column([corpus.text(i, code) for i in idx]) for code in corpus.codes},
        )
        for idx in partition(total, sizes, seed)
    )


def example_from_record(
    corpus: MultiParallelCorpus, index: int, src: str, tgt: str
) -> TranslationExample:
    """The ``src`` to ``tgt`` example of the record at position ``index``
    (``0 <= index < len(corpus)``). Its ``sentence_id`` is the record id,
    or ``None`` in a bilingual corpus, whose ids are only line positions."""
    return TranslationExample(
        corpus.language(src),
        corpus.language(tgt),
        corpus.text(index, src),
        corpus.text(index, tgt),
        None if isinstance(corpus, BilingualCorpus) else corpus.ids[index],
    )


def corpus_digest(corpus: MultiParallelCorpus) -> str:
    """Stable SHA-256 over corpus content, independent of load path. Corpora
    are immutable values, so it is computed once per corpus object and kept
    on it outside the dataclass fields, out of ``==`` and ``repr``."""
    digest = getattr(corpus, "_digest", None)
    if digest is None:
        digest = _content_digest(corpus)
        object.__setattr__(corpus, "_digest", digest)
    return digest


def _content_digest(corpus: MultiParallelCorpus) -> str:
    """SHA-256 of a header naming each language and its pretraining data, in
    corpus order, then one block per language column in sorted code order:
    the code, the text count and each text's length in code points
    (big-endian 8-byte words, so no text content can fake a boundary), then
    the column's texts as stored. Every corpus kind hashes in this layout."""
    hasher = hashlib.sha256()
    hasher.update(b"multiparallel\x00")
    for lang in corpus.languages:
        hasher.update(
            f"{lang.code}|{int(lang.in_pretrain)}|{lang.pretrain_size}".encode("utf-8") + b"\x00"
        )
    for code in sorted(corpus.codes):
        column, offsets = corpus.columns[code]
        n = len(offsets) - 1
        hasher.update(code.encode("utf-8") + b"\x00")
        hasher.update(struct.pack(f">{n + 1}Q", n, *map(sub, offsets[1:], offsets)))
        hasher.update(column.encode("utf-8"))
    return hasher.hexdigest()
