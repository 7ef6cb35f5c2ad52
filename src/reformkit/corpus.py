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
import random
import struct
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence, TextIO

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


@dataclass(frozen=True)
class BilingualCorpus:
    source_lang: Language
    target_lang: Language
    pairs: tuple[tuple[str, str], ...]

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class MultiParallelCorpus:
    languages: tuple[Language, ...]
    records: tuple[SentenceRecord, ...]
    # code -> Language, derived from ``languages``
    _by_code: dict[str, Language] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        codes = [lang.code for lang in self.languages]
        if len(set(codes)) != len(codes):
            raise ValidationError("duplicate language codes in corpus")
        object.__setattr__(self, "_by_code", {lang.code: lang for lang in self.languages})
        for rec in self.records:
            for code in codes:
                if not rec.texts.get(code):
                    raise AlignmentError(f"record {rec.id}: missing text for language {code}")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(lang.code for lang in self.languages)

    def language(self, code: str) -> Language:
        try:
            return self._by_code[code]
        except KeyError:
            raise ValidationError(f"unknown language: {code}") from None


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


def read_utf8(path: str | Path) -> str:
    """``Path.read_text`` in UTF-8, failing with a ValidationError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise _utf8_error(path) from None


@contextmanager
def open_utf8(path: str | Path) -> Iterator[TextIO]:
    """``Path.open`` in UTF-8 for reading, failing with a ValidationError."""
    try:
        with Path(path).open(encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        raise _utf8_error(path) from None


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
    pairs: list[tuple[str, str]] = []
    bad: list[str] = []
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
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
            pairs.append((src, tgt))
    if bad:
        raise ValidationError(f"{path}: {len(bad)} malformed row(s): " + "; ".join(bad))
    return BilingualCorpus(
        source_lang=source_lang or Language("src"),
        target_lang=target_lang or Language("tgt"),
        pairs=tuple(pairs),
    )


def write_bilingual(corpus: BilingualCorpus, path: str | Path, fmt: str) -> None:
    path = Path(path)
    if fmt not in ("tsv", "jsonl"):
        raise UsageError(f"unknown bilingual format: {fmt!r}")
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for src, tgt in corpus.pairs:
            if fmt == "tsv":
                fh.write(f"{src}\t{tgt}\n")
            else:
                fh.write(json.dumps({"source": src, "target": tgt}, ensure_ascii=False) + "\n")


def load_manifest(path: str | Path) -> list[Language]:
    """Read a JSON array of {"code", "in_pretrain", "pretrain_size"}."""
    data = json.loads(read_utf8(path))
    if not isinstance(data, list) or not data:
        raise ValidationError(f"{path}: manifest must be a nonempty JSON array")
    langs = []
    for index, entry in enumerate(data):
        if not isinstance(entry, dict) or "code" not in entry:
            raise ValidationError(f'{path}: entry {index}: expected an object with a "code" key')
        try:
            pretrain_size = int(entry.get("pretrain_size", 0))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: entry {index}: pretrain_size is not an integer") from exc
        langs.append(
            Language(
                code=entry["code"],
                in_pretrain=bool(entry.get("in_pretrain", False)),
                pretrain_size=pretrain_size,
            )
        )
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

    columns: dict[str, list[str]] = {}
    expected: int | None = None
    expected_from = ""
    for lang in langs:
        lang_file = directory / f"{lang.code}.txt"
        if not lang_file.exists():
            raise ValidationError(f"missing language file: {lang_file}")
        lines = read_utf8(lang_file).splitlines()
        texts = []
        for lineno, raw in enumerate(lines, 1):
            text = _clean(raw)
            if not text:
                raise ValidationError(f"{lang_file}: line {lineno}: empty sentence")
            texts.append(text)
        if expected is None:
            expected = len(texts)
            expected_from = lang.code
        elif len(texts) != expected:
            raise AlignmentError(
                f"language {lang.code} has {len(texts)} sentences, "
                f"expected {expected} (from {expected_from})"
            )
        columns[lang.code] = texts

    assert expected is not None
    records = tuple(
        SentenceRecord(id=i, texts={lang.code: columns[lang.code][i] for lang in langs})
        for i in range(expected)
    )
    return MultiParallelCorpus(languages=langs, records=records)


def write_multiparallel(corpus: MultiParallelCorpus, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = [
        {"code": lang.code, "in_pretrain": lang.in_pretrain, "pretrain_size": lang.pretrain_size}
        for lang in corpus.languages
    ]
    (directory / "manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )
    for lang in corpus.languages:
        lines = "".join(rec.texts[lang.code] + "\n" for rec in corpus.records)
        (directory / f"{lang.code}.txt").write_text(lines, encoding="utf-8", newline="\n")


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


def split(
    corpus: BilingualCorpus | MultiParallelCorpus,
    sizes: tuple[int, int, int],
    seed: int,
):
    """Deterministically split into (train, valid, test) of exactly ``sizes``."""
    if len(sizes) != 3 or min(sizes) < 0:
        raise ValidationError("split sizes must be three nonnegative counts")
    total = len(corpus)
    if sum(sizes) > total:
        raise ValidationError(f"split sizes {sizes} exceed corpus size {total}")
    picks = partition(total, sizes, seed)
    if isinstance(corpus, BilingualCorpus):
        return tuple(
            BilingualCorpus(corpus.source_lang, corpus.target_lang, tuple(corpus.pairs[i] for i in idx))
            for idx in picks
        )
    return tuple(
        MultiParallelCorpus(
            corpus.languages,
            tuple(
                SentenceRecord(id=new_id, texts=dict(corpus.records[i].texts))
                for new_id, i in enumerate(idx)
            ),
        )
        for idx in picks
    )


def example_from_record(
    corpus: MultiParallelCorpus, record: SentenceRecord, src: str, tgt: str
) -> TranslationExample:
    for code in (src, tgt):
        if code not in record.texts:
            raise AlignmentError(f"record {record.id}: missing text for language {code}")
    return TranslationExample(
        source_lang=corpus.language(src),
        target_lang=corpus.language(tgt),
        source_text=record.texts[src],
        target_text=record.texts[tgt],
        sentence_id=record.id,
    )


def corpus_digest(corpus: BilingualCorpus | MultiParallelCorpus) -> str:
    """Stable SHA-256 over corpus content, independent of load path. Corpora
    are immutable values, so it is computed once per corpus object and kept
    on it outside the dataclass fields, out of ``==`` and ``repr``."""
    digest = getattr(corpus, "_digest", None)
    if digest is None:
        digest = _content_digest(corpus)
        object.__setattr__(corpus, "_digest", digest)
    return digest


def _content_digest(corpus: BilingualCorpus | MultiParallelCorpus) -> str:
    """SHA-256 of a header, then one block per language column: the code, the
    text count and each text's length in code points (big-endian 8-byte
    words, so no text content can fake a boundary), then the column's texts
    joined and encoded at once. One column is joined at a time, never the
    whole corpus."""
    hasher = hashlib.sha256()

    def add_column(code: str, column: list[str]) -> None:
        hasher.update(code.encode("utf-8") + b"\x00")
        hasher.update(struct.pack(f">{len(column) + 1}Q", len(column), *map(len, column)))
        hasher.update("".join(column).encode("utf-8"))

    if isinstance(corpus, BilingualCorpus):
        hasher.update(b"bilingual\x00")
        add_column(corpus.source_lang.code, [src for src, _ in corpus.pairs])
        add_column(corpus.target_lang.code, [tgt for _, tgt in corpus.pairs])
    else:
        hasher.update(b"multiparallel\x00")
        for lang in corpus.languages:
            hasher.update(
                f"{lang.code}|{int(lang.in_pretrain)}|{lang.pretrain_size}".encode("utf-8") + b"\x00"
            )
        texts = [rec.texts for rec in corpus.records]
        for code in sorted(corpus.codes):
            add_column(code, [t[code] for t in texts])
    return hasher.hexdigest()
