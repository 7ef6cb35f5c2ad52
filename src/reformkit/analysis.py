"""Measurement breakdowns over direction scores.

Splits xx-yy direction scores by pretraining membership of the two
languages, by English involvement, and against pretraining-corpus size
(scatter rows plus a Spearman rank correlation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .corpus import Language
from .errors import ValidationError
from .metrics import DirectionScore, check_distinct_directions

DEFAULT_ENGLISH = "eng_Latn"


@dataclass(frozen=True)
class Cell:
    """Mean score over the member directions; value is None when empty."""

    value: float | None
    n: int


@dataclass(frozen=True)
class BreakdownReport:
    in_in: Cell
    out_in: Cell
    in_out: Cell
    out_out: Cell
    to_eng: Cell
    from_eng: Cell
    avg: Cell


@dataclass(frozen=True)
class ScatterRow:
    code: str
    pretrain_size: int
    mean_score: float
    n_directions: int


@dataclass(frozen=True)
class ScatterReport:
    direction: str  # from_lang | into_lang
    rows: tuple[ScatterRow, ...]
    excluded: tuple[str, ...]  # languages dropped for unknown (0) size
    spearman: float
    degenerate: bool


def _mean_cell(values: Sequence[float]) -> Cell:
    if not values:
        return Cell(None, 0)
    return Cell(math.fsum(values) / len(values), len(values))


def _checked_metadata(
    scores: Sequence[DirectionScore], langs: Iterable[Language]
) -> dict[str, Language]:
    """The code -> ``Language`` map of ``langs``, once ``scores`` is known
    to hold each direction once and both languages of every score are in
    the map."""
    check_distinct_directions(scores)
    meta = {lang.code: lang for lang in langs}
    for s in scores:
        # two tests, not a loop over (s.src, s.tgt): see the GC note in
        # ``check_distinct_directions``
        if s.src not in meta or s.tgt not in meta:
            code = s.src if s.src not in meta else s.tgt
            raise ValidationError(f"language {code} missing from metadata")
    return meta


def breakdown(
    scores: Sequence[DirectionScore],
    langs: Iterable[Language],
    english_code: str = DEFAULT_ENGLISH,
) -> BreakdownReport:
    """Partition directions by pretraining membership of source and target.

    The four in/out cells partition all directions; the to/from-English
    cells overlap them and are reported separately. ``avg`` is the
    unweighted mean over every direction.
    """
    if not scores:
        raise ValidationError("no direction scores to break down")
    meta = _checked_metadata(scores, langs)
    cells: dict[str, list[float]] = {f.name: [] for f in fields(BreakdownReport)}
    for s in scores:
        src_in, tgt_in = meta[s.src].in_pretrain, meta[s.tgt].in_pretrain
        cells[("in_" if src_in else "out_") + ("in" if tgt_in else "out")].append(s.value)
        if s.tgt == english_code:
            cells["to_eng"].append(s.value)
        if s.src == english_code:
            cells["from_eng"].append(s.value)
        cells["avg"].append(s.value)
    return BreakdownReport(**{name: _mean_cell(values) for name, values in cells.items()})


def _midranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        midrank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = midrank
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, bool]:
    """Rank correlation with midranks for ties.

    Returns (rho, degenerate); degenerate means one side was constant, in
    which case rho is 0 by convention.
    """
    if len(xs) != len(ys):
        raise ValidationError("correlation inputs differ in length")
    if len(xs) < 2:
        return 0.0, True
    rx = _midranks(xs)
    ry = _midranks(ys)
    mean_x = math.fsum(rx) / len(rx)
    mean_y = math.fsum(ry) / len(ry)
    cov = math.fsum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    var_x = math.fsum((a - mean_x) ** 2 for a in rx)
    var_y = math.fsum((b - mean_y) ** 2 for b in ry)
    if var_x == 0.0 or var_y == 0.0:
        return 0.0, True
    return cov / math.sqrt(var_x * var_y), False


def pretrain_scatter(
    scores: Sequence[DirectionScore],
    langs: Iterable[Language],
    direction: str = "from_lang",
) -> ScatterReport:
    """Per-language mean score vs pretraining-corpus size.

    ``from_lang`` averages directions whose source is the language;
    ``into_lang`` averages directions whose target is it. Languages with
    unknown size (0) are excluded from the correlation and listed.
    """
    if direction not in ("from_lang", "into_lang"):
        raise ValidationError(f"unknown scatter direction: {direction!r}")
    meta = _checked_metadata(scores, langs)
    grouped: dict[str, list[float]] = {}
    for s in scores:
        grouped.setdefault(s.src if direction == "from_lang" else s.tgt, []).append(s.value)

    rows = []
    excluded = []
    for code in sorted(grouped):
        size = meta[code].pretrain_size
        if size <= 0:
            excluded.append(code)
            continue
        values = grouped[code]
        rows.append(ScatterRow(code, size, math.fsum(values) / len(values), len(values)))
    rho, degenerate = spearman(
        [r.pretrain_size for r in rows], [r.mean_score for r in rows]
    )
    return ScatterReport(
        direction=direction,
        rows=tuple(rows),
        excluded=tuple(excluded),
        spearman=rho,
        degenerate=degenerate,
    )


def scatter_tsv(report: ScatterReport) -> str:
    lines = ["language\tpretrain_size\tmean_score\tn_directions"]
    for r in report.rows:
        lines.append(f"{r.code}\t{r.pretrain_size}\t{format(r.mean_score, '.6f')}\t{r.n_directions}")
    return "\n".join(lines) + "\n"
