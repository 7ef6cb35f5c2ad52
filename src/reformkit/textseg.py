"""Lossless text segmentation used for prefix selection, masking units, and stats.

Segmentation is exact: unit spans tile the whole string, so any prefix of
units is a literal slice of the original text. Separator characters
(whitespace, Tibetan tsheg) are carried on the unit that precedes them,
which keeps unit counts equal to intuitive word counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .corpus import cast_fields, read_lines
from .errors import UsageError, ValidationError

KIND_UNICODE_WORDS = "unicode_words"
KIND_WHITESPACE = "whitespace"
KIND_CODEPOINTS = "codepoints"

SEGMENTER_KINDS = (KIND_UNICODE_WORDS, KIND_WHITESPACE, KIND_CODEPOINTS)


@dataclass(frozen=True)
class Segmenter:
    """Segmentation policy. Token counts from an external subword tokenizer
    come from a sidecar file instead (``read_sidecar_counts``)."""

    kind: str = KIND_UNICODE_WORDS

    def __post_init__(self) -> None:
        cast_fields(self)
        if self.kind not in SEGMENTER_KINDS:
            raise ValidationError(f"unknown segmenter kind: {self.kind!r}")


@dataclass(frozen=True)
class Segmentation:
    """A view of ``source`` under ``seg``. ``units`` holds one
    ``(start, core_end, end)`` offset triple per unit, built on first read:
    source[start:core_end] is the word core and source[core_end:end] its
    trailing separators. ``len`` is the unit count, which needs no offsets."""

    source: str
    seg: Segmenter

    @cached_property
    def units(self) -> tuple[tuple[int, int, int], ...]:
        # The cores are the words of ``_spaced(...).split()``: a core holds no
        # separator, so its first match after the previous core is itself. A
        # unit runs to the next core; the first starts at 0, the last ends at len.
        s, kind = self.source, self.seg.kind
        if kind == KIND_CODEPOINTS:
            return tuple((i, i + 1, i + 1) for i in range(len(s)))
        spaced = _spaced(s, kind)
        starts, core_ends, pos = [], [], 0
        for core in spaced.split():
            pos = spaced.find(core, pos)
            starts.append(pos)
            pos += len(core)
            core_ends.append(pos)
        if not starts:
            # Separator-only string: a single unit with no core.
            return ((0, len(s), len(s)),) if s else ()
        return tuple(zip([0, *starts[1:]], core_ends, [*starts[1:], len(s)]))

    def __len__(self) -> int:
        # cached by hand: a cached_property takes a lock on first read before Python 3.12
        n = self.__dict__.get("_n_units")
        if n is None:
            n = self.__dict__["_n_units"] = count_units(self.source, self.seg)
        return n


def segment(s: str, seg: Segmenter | None = None) -> Segmentation:
    """The view of ``s`` as units whose spans exactly tile the string."""
    return Segmentation(s, seg or Segmenter())


def _spaced(s: str, kind: str) -> str:
    """``s`` with the kind's separators made spaces, for ``str.split``; the
    length is unchanged, so positions in it are positions in ``s``. The
    Tibetan tsheg marks U+0F0B and U+0F0C delimit words but are not
    Unicode whitespace."""
    if kind == KIND_UNICODE_WORDS:
        return s.replace("\u0f0b", " ").replace("\u0f0c", " ")
    return s


def take_prefix(segmentation: Segmentation, k: int) -> str:
    """Return the slice of the source covering the first ``k`` units.

    For k < unit count the trailing separators of the k-th unit are left
    out, so the result ends on a word core; for k == unit count the full
    source string is returned. ``rsplit`` drops the last n - k cores and
    the separators before them.
    """
    n = len(segmentation)
    if k < 0 or k > n:
        raise UsageError(f"prefix length {k} out of range 0..{n}")
    if k == 0:
        return ""
    source, kind = segmentation.source, segmentation.seg.kind
    if k == n:
        return source
    if kind == KIND_CODEPOINTS:
        return source[:k]
    return source[: len(_spaced(source, kind).rsplit(None, n - k)[0])]


def take_suffix(segmentation: Segmentation, k: int) -> str:
    """Return the slice covering the last ``k`` units: from the core of the
    first of them, which ``split`` leaves at the head of its remainder."""
    n = len(segmentation)
    if k < 0 or k > n:
        raise UsageError(f"suffix length {k} out of range 0..{n}")
    if k == 0:
        return ""
    source, kind = segmentation.source, segmentation.seg.kind
    if k == n or kind == KIND_CODEPOINTS:
        return source[n - k :]
    return source[len(source) - len(_spaced(source, kind).split(None, n - k)[-1]) :]


def count_units(s: str, seg: Segmenter | None = None) -> int:
    """``len(segment(s, seg).units)``, without building the offsets: a
    nonempty separator-only string is one unit."""
    kind = seg.kind if seg is not None else KIND_UNICODE_WORDS
    if kind == KIND_CODEPOINTS:
        return len(s)
    return len(_spaced(s, kind).split()) or (1 if s else 0)


def read_sidecar_counts(path: str | Path) -> list[int]:
    """Read one integer per LF-ended line, aligned with corpus line numbers."""
    counts: list[int] = []
    for lineno, raw in enumerate(read_lines(path), 1):
        value = raw.strip()
        if not value:
            raise ValidationError(f"{path}: line {lineno}: empty count")
        try:
            count = int(value)
        except ValueError as exc:
            raise ValidationError(f"{path}: line {lineno}: not an integer: {value!r}") from exc
        if count < 0:
            raise ValidationError(f"{path}: line {lineno}: negative count")
        counts.append(count)
    return counts
