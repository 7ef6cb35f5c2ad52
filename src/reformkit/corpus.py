"""Loading, validation, and splitting of bilingual and multi-parallel corpora.

On-disk conventions:
  - bilingual TSV: two tab-separated columns, no header, UTF-8, LF endings
  - bilingual JSONL: one object per line with keys "source" and "target"
  - multi-parallel: one UTF-8 file per language ("<code>.txt", one sentence
    per line) next to a "manifest.json" listing
    {"code", "in_pretrain", "pretrain_size"} per language, and an "ids.json"
    array of record ids when they are not 0 .. n-1

All text is NFC-normalized and edge-trimmed at load. Empty-after-trim text
is a hard error, never a silent drop, so alignment is preserved exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import struct
import sys
import unicodedata
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import cache
from itertools import accumulate, zip_longest
from operator import sub
from pathlib import Path
from typing import Iterable, Iterator, Sequence, get_args, get_origin, get_type_hints

from .errors import AlignmentError, UsageError, ValidationError


@dataclass(frozen=True)
class Language:
    code: str
    in_pretrain: bool = False
    pretrain_size: int = 0

    def __post_init__(self) -> None:
        cast_fields(self)
        if not self.code:
            raise ValidationError("language code must be nonempty")
        if self.pretrain_size < 0:
            raise ValidationError(f"{self.code}: pretrain_size must be >= 0")


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

    ``texts`` gives one iterable of nonempty ``str`` per language, in
    ``languages`` order; each is joined before the next is read, so a
    generator keeps one language's texts alive at a time. ``ids`` are
    distinct 64-bit integers, ``0 .. n-1`` by default. Other input raises a
    ValidationError or AlignmentError naming the language and the record.
    """

    languages: tuple[Language, ...]
    ids: array = field(init=False, repr=False)
    columns: dict[str, tuple[str, array]] = field(init=False, repr=False)
    # code -> Language, derived from ``languages``
    _by_code: dict[str, Language] = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        languages: Sequence[Language],
        texts: Iterable[Iterable[str]],
        ids: Iterable[int] | None = None,
    ) -> None:
        languages = tuple(languages)
        codes = [lang.code for lang in languages]
        if len(set(codes)) != len(codes):
            raise ValidationError("duplicate language codes in corpus")
        n, n_from, record = None, "", lambda i: i
        if ids is not None:
            try:
                ids = array("q", iter(ids))  # from bytes, array() would read raw words
            except (TypeError, OverflowError) as exc:
                raise ValidationError(f"record ids must be integers in [-2**63, 2**63): {exc}") from None
            if len(set(ids)) < len(ids):
                repeated = next(rid for rid, count in Counter(ids).items() if count > 1)
                raise ValidationError(f"record id {repeated} is repeated")
            n, n_from, record = len(ids), "ids", ids.__getitem__
        columns: dict[str, tuple[str, array]] = {}
        for code, given in zip_longest(codes, texts):
            if code is None or given is None or isinstance(given, str):
                raise ValidationError(f"texts must give one iterable of str per language, {len(codes)} in all")
            # a list or tuple is read as it is: a copy would add to the load peak
            given = given if isinstance(given, (list, tuple)) else list(given)
            if n is None:
                n, n_from = len(given), code
            elif len(given) != n:
                raise AlignmentError(
                    f"language {code} has {len(given)} sentences, expected {n} (from {n_from})"
                )
            try:
                column, offsets = _column(given)
            except TypeError:
                bad = next(i for i, text in enumerate(given) if not isinstance(text, str))
                raise ValidationError(
                    f"record {record(bad)}: {code} text must be a str, got {type(given[bad]).__name__}"
                ) from None
            if not all(given):
                raise AlignmentError(f"record {record(given.index(''))}: missing text for language {code}")
            # UTF-16 is the cheapest codec that rejects a lone surrogate (no UTF-8 form)
            for start in range(0, 0 if column.isascii() else len(column), 1 << 16):
                try:
                    column[start : start + (1 << 16)].encode("utf-16-le")
                except UnicodeEncodeError as exc:
                    bad = bisect_right(offsets, start + exc.start) - 1
                    raise ValidationError(f"record {record(bad)}: {code} text is not valid UTF-8") from None
            columns[code] = column, offsets
        object.__setattr__(self, "languages", languages)
        object.__setattr__(self, "ids", array("q", range(n or 0)) if ids is None else ids)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "_by_code", {lang.code: lang for lang in languages})

    @classmethod
    def _of(cls, languages: Sequence[Language], texts: Iterable[Iterable[str]]):
        """A corpus of this class, ids ``0 .. n-1``, built by the checked
        ``MultiParallelCorpus.__init__`` whatever a subclass's takes."""
        corpus = object.__new__(cls)
        MultiParallelCorpus.__init__(corpus, languages, texts)
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
    that builds in one direction: source to target. ``pairs`` is transposed
    into the two columns, whose texts are checked as in any corpus."""

    def __init__(
        self, source_lang: Language, target_lang: Language, pairs: Iterable[tuple[str, str]]
    ) -> None:
        try:
            # a str is iterable but no pair: None makes zip raise for it
            pairs = (None if isinstance(pair, str) else pair for pair in pairs)
            source, target = tuple(zip(*pairs, strict=True)) or ((), ())
        except (TypeError, ValueError):
            raise ValidationError("pairs must be (source, target) texts") from None
        super().__init__((source_lang, target_lang), (source, target))

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
    ValidationError naming the line, an integer too long to convert with one
    naming the file."""
    text = "\n".join(read_lines(path))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno}: invalid JSON: {exc.msg}") from None
    except ValueError as exc:  # past sys.get_int_max_str_digits
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None


def cast_scalar(name: str, annotation, value):
    """``value`` checked against the scalar type a config field declares:
    an int but not a bool for ``int``, any finite int or float (returned as a
    float) for ``float``, only a bool for ``bool``, only a string for ``str``.
    Other annotations pass through."""
    if annotation is str:
        ok = isinstance(value, str)
    elif annotation is bool:
        ok = isinstance(value, bool)
    elif annotation is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif annotation is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        return value
    if not ok:
        article = "an" if annotation is int else "a"
        raise ValidationError(f"{name} must be {article} {annotation.__name__}, got {value!r}")
    # compared exactly, so an int too large for a float fails here, not in float()
    if annotation is float and not -sys.float_info.max <= value <= sys.float_info.max:
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return float(value) if annotation is float else value


# a dataclass's resolved annotations (strings under postponed evaluation)
_hints = cache(get_type_hints)


@cache
def _dataclass_in(hint):
    """The dataclass ``hint`` names, also as ``X | None``, else ``None``."""
    return next((t for t in (hint, *get_args(hint)) if is_dataclass(t)), None)


def cast_fields(obj) -> None:
    """Check each field of the frozen dataclass ``obj`` against its type
    hint and store it cast: ``None`` if the hint allows it, a tuple of cast
    items from a list or tuple, an instance of a dataclass hint (also
    ``X | None``) as it is, else as ``cast_scalar`` gives it. So an int given
    for a float field compares, hashes and echoes as the float its echo
    rebuilds."""
    for name, hint in _hints(type(obj)).items():
        value = getattr(obj, name)
        args = get_args(hint)
        if value is None and type(None) in args:
            continue
        if get_origin(hint) is tuple:
            if not isinstance(value, (list, tuple)):
                raise ValidationError(f"config key {name} must be a list")
            value = tuple(cast_scalar(name, args[0], item) for item in value)
        elif (cls := _dataclass_in(hint)) is not None:
            if not isinstance(value, cls):
                raise ValidationError(f"{name} must be a {cls.__name__}, got {value!r}")
        else:
            value = cast_scalar(name, hint, value)
        object.__setattr__(obj, name, value)


def decode(cls, data, where: str = "config", **given):
    """The dataclass ``cls`` built from the JSON object ``data``.

    A null value counts as absent, an absent key takes the field default
    and ``given`` fills keys that ``data`` lacks. A dataclass field (also
    ``X | None``) decodes recursively from an object; ``cls`` casts the
    values itself (``cast_fields``). ``where`` names this level in the
    messages.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"config key {where} must be an object")
    values = {**given, **{key: value for key, value in data.items() if value is not None}}
    declared = fields(cls)
    unknown = set(values) - {f.name for f in declared}
    if unknown:
        raise ValidationError(f"unknown {where} keys: {sorted(unknown)}")
    required = {f.name for f in declared if f.default is MISSING and f.default_factory is MISSING}
    missing = sorted(required - set(values))
    if missing:
        raise ValidationError(f"{where} missing required keys: {missing}")
    for key, value in values.items():
        nested = _dataclass_in(_hints(cls)[key])
        if nested is not None:
            values[key] = decode(nested, value, key)
    return cls(**values)


def write_atomic(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write the byte ``chunks`` to ``<name>.tmp`` beside ``path``, creating
    the directory, then rename it over ``path``: a reader sees the old file
    or the whole new one. A failed write removes ``<name>.tmp``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            fh.writelines(chunks)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
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
    return BilingualCorpus._of(languages, (sources, targets))


def write_bilingual(corpus: BilingualCorpus, path: str | Path, fmt: str) -> None:
    if fmt not in ("tsv", "jsonl"):
        raise UsageError(f"unknown bilingual format: {fmt!r}")
    source, target = corpus.codes
    pairs = ((corpus.text(i, source), corpus.text(i, target)) for i in range(len(corpus)))
    lines = (
        f"{src}\t{tgt}\n"
        if fmt == "tsv"
        else json.dumps({"source": src, "target": tgt}, ensure_ascii=False) + "\n"
        for src, tgt in pairs
    )
    write_atomic(path, (line.encode("utf-8") for line in lines))


def load_manifest(path: str | Path) -> list[Language]:
    """Read a JSON array of {"code", "in_pretrain", "pretrain_size"}
    objects, each decoded as a ``Language``. Each code appears once."""
    data = read_json(path)
    if not isinstance(data, list) or not data:
        raise ValidationError(f"{path}: manifest must be a nonempty JSON array")
    langs = []
    first_at: dict[str, int] = {}
    for index, entry in enumerate(data):
        try:
            lang = decode(Language, entry, "language")
        except ValidationError as exc:
            raise ValidationError(f"{path}: entry {index}: {exc}") from None
        if first_at.setdefault(lang.code, index) != index:
            raise ValidationError(
                f"{path}: entry {index}: duplicate code {lang.code} (first at entry {first_at[lang.code]})"
            )
        langs.append(lang)
    return langs


def load_multiparallel(path: str | Path) -> MultiParallelCorpus:
    """Load aligned one-file-per-language text, checking full alignment.

    ``path`` is either the corpus directory or its manifest file. An
    ``ids.json`` beside the manifest gives the record ids.
    """
    path = Path(path)
    manifest_path = path if path.is_file() else path / "manifest.json"
    if not manifest_path.exists():
        raise ValidationError(f"no manifest found at {manifest_path}")
    langs = load_manifest(manifest_path)

    def per_language():
        # one file at a time: the corpus joins each before the next is read
        for lang in langs:
            lang_file = manifest_path.parent / f"{lang.code}.txt"
            if not lang_file.exists():
                raise ValidationError(f"missing language file: {lang_file}")
            texts = [_clean(raw) for raw in read_lines(lang_file)]
            if not all(texts):
                raise ValidationError(f"{lang_file}: line {texts.index('') + 1}: empty sentence")
            yield texts

    ids_path, ids = manifest_path.parent / "ids.json", None
    if ids_path.exists():
        ids = read_json(ids_path)
        if not isinstance(ids, list) or not all(type(rid) is int for rid in ids):
            raise ValidationError(f"{ids_path}: record ids must be a JSON array of integers")
    return MultiParallelCorpus(langs, per_language(), ids)


def write_multiparallel(corpus: MultiParallelCorpus, directory: str | Path) -> None:
    directory = Path(directory)
    manifest = [asdict(lang) for lang in corpus.languages]
    text = json.dumps(manifest, ensure_ascii=False, indent=2) + "\n"
    write_atomic(directory / "manifest.json", (text.encode("utf-8"),))
    for code in corpus.codes:
        lines = (corpus.text(i, code) + "\n" for i in range(len(corpus)))
        write_atomic(directory / f"{code}.txt", (line.encode("utf-8") for line in lines))
    if _default_ids(corpus):
        (directory / "ids.json").unlink(missing_ok=True)
    else:
        write_atomic(directory / "ids.json", (json.dumps(corpus.ids.tolist()).encode("utf-8") + b"\n",))


def _default_ids(corpus: MultiParallelCorpus) -> bool:
    return corpus.ids == array("q", range(len(corpus)))


def check_seed(seed: int) -> None:
    """A seed must fit the 8 bytes ``_substream`` hashes it into."""
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be in [0, 2**64), got {seed}")


def _substream(seed: int, role: str, index: int) -> random.Random:
    """Independent RNG stream for one (role, index); order-free determinism.
    Every seed reaches a generator here, so its range is checked here too."""
    check_seed(seed)
    h = hashlib.blake2b(digest_size=16)
    h.update(seed.to_bytes(8, "big"))
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
        corpus._of(corpus.languages, ([corpus.text(i, code) for i in idx] for code in corpus.codes))
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
    the column's texts as stored. Every corpus kind hashes in this layout.
    Record ids other than ``0 .. n-1`` follow, after ``ids\\x00``, as
    big-endian signed 8-byte words."""
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
    if not _default_ids(corpus):
        hasher.update(b"ids\x00" + struct.pack(f">{len(corpus)}q", *corpus.ids))
    return hasher.hexdigest()
