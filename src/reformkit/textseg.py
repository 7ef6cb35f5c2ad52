"""Lossless text segmentation used for prefix selection, masking units, and stats.

Segmentation is exact: unit spans tile the whole string, so any prefix of
units is a literal slice of the original text. Separator characters
(whitespace, Tibetan tsheg) are carried on the unit that precedes them,
which keeps unit counts equal to intuitive word counts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

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
        if self.kind not in SEGMENTER_KINDS:
            raise ValidationError(f"unknown segmenter kind: {self.kind!r}")


# One pattern per kind. Each match is one unit: group 1 is the word
# core, the rest trailing separators. Matches are greedy and adjacent, so
# leading separators can only land on the first match, which starts at 0.
# U+0F0B / U+0F0C are the Tibetan intersyllabic tsheg marks, word delimiters
# that are not Unicode whitespace.
_UNIT_PATTERNS = {
    KIND_UNICODE_WORDS: re.compile(r"[\s་༌]*([^\s་༌]+)[\s་༌]*"),
    KIND_WHITESPACE: re.compile(r"\s*(\S+)\s*"),
    KIND_CODEPOINTS: re.compile(r"(.)", re.DOTALL),
}


@dataclass(frozen=True)
class Segmentation:
    """``units`` holds one ``(start, core_end, end)`` offset triple per unit:
    source[start:core_end] is the word core and source[core_end:end] its
    trailing separators."""

    source: str
    units: tuple[tuple[int, int, int], ...]


def segment(s: str, seg: Segmenter | None = None) -> Segmentation:
    """Split ``s`` into units whose spans exactly tile the string."""
    seg = seg or Segmenter()
    units = tuple((m.start(), m.end(1), m.end()) for m in _UNIT_PATTERNS[seg.kind].finditer(s))
    if s and not units:
        # Separator-only string: a single unit with no core.
        units = ((0, len(s), len(s)),)
    return Segmentation(s, units)


def take_prefix(segmentation: Segmentation, k: int) -> str:
    """Return the slice of the source covering the first ``k`` units.

    For k < unit count the trailing separators of the k-th unit are left
    out, so the result ends on a word core; for k == unit count the full
    source string is returned.
    """
    units = segmentation.units
    if k < 0 or k > len(units):
        raise UsageError(f"prefix length {k} out of range 0..{len(units)}")
    if k == 0:
        return ""
    if k == len(units):
        return segmentation.source
    return segmentation.source[: units[k - 1][1]]


def take_suffix(segmentation: Segmentation, k: int) -> str:
    """Return the slice covering the last ``k`` units."""
    units = segmentation.units
    if k < 0 or k > len(units):
        raise UsageError(f"suffix length {k} out of range 0..{len(units)}")
    if k == 0:
        return ""
    return segmentation.source[units[len(units) - k][0] :]


def count_units(s: str, seg: Segmenter | None = None) -> int:
    return len(segment(s, seg).units)


def read_sidecar_counts(path: str | Path) -> list[int]:
    """Read one integer per line, aligned with corpus line numbers."""
    counts: list[int] = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
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
