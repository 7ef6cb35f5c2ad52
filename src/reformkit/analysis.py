"""Measurement breakdowns over direction scores.

Splits xx-yy direction scores by pretraining membership of the two
languages, by English involvement, and against pretraining-corpus size
(scatter rows plus a Spearman rank correlation).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
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

    def as_dict(self) -> dict:
        return asdict(self)


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

    def as_dict(self) -> dict:
        return asdict(self)


def _mean_cell(values: Sequence[float]) -> Cell:
    if not values:
        return Cell(None, 0)
    return Cell(math.fsum(values) / len(values), len(values))


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
    check_distinct_directions(scores)
    meta = {lang.code: lang for lang in langs}
    cells: dict[str, list[float]] = {
        "in_in": [],
        "out_in": [],
        "in_out": [],
        "out_out": [],
        "to_eng": [],
        "from_eng": [],
    }
    all_values = []
    for s in scores:
        for code in (s.src, s.tgt):
            if code not in meta:
                raise ValidationError(f"language {code} missing from metadata")
        src_in = meta[s.src].in_pretrain
        tgt_in = meta[s.tgt].in_pretrain
        key = ("in_" if src_in else "out_") + ("in" if tgt_in else "out")
        cells[key].append(s.value)
        if s.tgt == english_code:
            cells["to_eng"].append(s.value)
        if s.src == english_code:
            cells["from_eng"].append(s.value)
        all_values.append(s.value)
    return BreakdownReport(
        in_in=_mean_cell(cells["in_in"]),
        out_in=_mean_cell(cells["out_in"]),
        in_out=_mean_cell(cells["in_out"]),
        out_out=_mean_cell(cells["out_out"]),
        to_eng=_mean_cell(cells["to_eng"]),
        from_eng=_mean_cell(cells["from_eng"]),
        avg=_mean_cell(all_values),
    )


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
    check_distinct_directions(scores)
    meta = {lang.code: lang for lang in langs}
    grouped: dict[str, list[float]] = {}
    for s in scores:
        code = s.src if direction == "from_lang" else s.tgt
        if code not in meta:
            raise ValidationError(f"language {code} missing from metadata")
        grouped.setdefault(code, []).append(s.value)

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
