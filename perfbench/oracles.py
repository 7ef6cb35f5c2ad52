"""Independent computations the benchmark checks reformkit's outputs against.

Nothing here imports reformkit. The unit counter is one regular expression;
BLEU and chrF++ are written from their definitions with exact fractions and
a consume-the-reference matching loop, in a different style from the
program's Counter-based code, so a shared mistake is unlikely.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence

# Whitespace plus the two Tibetan tsheg marks separate units.
_SEP = "\\s\u0f0b\u0f0c"
_UNIT = re.compile(f"([^{_SEP}]+)[{_SEP}]*")


def count_units(text: str) -> int:
    """Word-core count; a separator-only string is one unit, "" is none."""
    if not text:
        return 0
    return sum(1 for _ in _UNIT.finditer(text)) or 1


def prefix_units(text: str, k: int) -> str:
    """The first ``k`` units, ending on a word core unless all are taken."""
    matches = list(_UNIT.finditer(text))
    if k <= 0:
        return ""
    if k >= len(matches):
        return text
    return text[: matches[k - 1].end(1)]


def suffix_units(text: str, k: int) -> str:
    """The last ``k`` units, trailing separators included."""
    matches = list(_UNIT.finditer(text))
    if k <= 0:
        return ""
    if k >= len(matches):
        return text
    return text[matches[len(matches) - k].start() :]


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


# ---------------------------------------------------------------- metrics


def _clipped(hyp_grams: list, ref_grams: list) -> int:
    """Hypothesis n-grams matched, each reference n-gram usable once."""
    available: dict = {}
    for g in ref_grams:
        available[g] = available.get(g, 0) + 1
    matched = 0
    for g in hyp_grams:
        left = available.get(g, 0)
        if left:
            available[g] = left - 1
            matched += 1
    return matched


def _word_grams(words: list[str], n: int) -> list:
    return [tuple(words[i : i + n]) for i in range(len(words) - n + 1)]


def _char_grams(chars: str, n: int) -> list:
    return [chars[i : i + n] for i in range(len(chars) - n + 1)]


def bleu(hyps: Sequence[str], refs: Sequence[str], max_n: int = 4) -> float:
    """Corpus BLEU (Papineni et al., 2002), unsmoothed, on whitespace tokens.

    As reformkit documents, the order drops to the longest reference's token
    count when that is below ``max_n``.
    """
    hyp_tok = [h.split() for h in hyps]
    ref_tok = [r.split() for r in refs]
    order = max(1, min(max_n, max(len(r) for r in ref_tok)))
    c = sum(len(h) for h in hyp_tok)
    r = sum(len(x) for x in ref_tok)
    if c == 0:
        return 0.0
    product = Fraction(1)
    for n in range(1, order + 1):
        matched = total = 0
        for h, x in zip(hyp_tok, ref_tok):
            hg = _word_grams(h, n)
            matched += _clipped(hg, _word_grams(x, n))
            total += len(hg)
        if matched == 0:
            return 0.0
        product *= Fraction(matched, total)
    brevity = 1.0 if c > r else math.exp(1 - r / c)
    return 100.0 * brevity * math.exp(math.log(product) / order)


def chrfpp(
    hyps: Sequence[str], refs: Sequence[str], char_n: int = 6, word_n: int = 2, beta: int = 2
) -> float:
    """chrF++ (Popović, 2017): F-beta of precision and recall averaged over
    character orders 1..char_n (whitespace removed) and word orders
    1..word_n; an order with no n-grams on either side is left out."""
    precisions: list[Fraction] = []
    recalls: list[Fraction] = []
    squeezed = [("".join(h.split()), "".join(r.split())) for h, r in zip(hyps, refs)]
    split = [(h.split(), r.split()) for h, r in zip(hyps, refs)]
    orders = [(_char_grams, squeezed, n) for n in range(1, char_n + 1)]
    orders += [(_word_grams, split, n) for n in range(1, word_n + 1)]
    for grams, pairs, n in orders:
        matched = hyp_total = ref_total = 0
        for h, r in pairs:
            hg, rg = grams(h, n), grams(r, n)
            matched += _clipped(hg, rg)
            hyp_total += len(hg)
            ref_total += len(rg)
        if hyp_total + ref_total == 0:
            continue
        precisions.append(Fraction(matched, hyp_total) if hyp_total else Fraction(0))
        recalls.append(Fraction(matched, ref_total) if ref_total else Fraction(0))
    if not precisions:
        return 0.0
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    b2 = beta * beta
    if b2 * p + r == 0:
        return 0.0
    return float(100 * (1 + b2) * p * r / (b2 * p + r))


# --------------------------------------------------------------- analysis


def regroup_scores(rows: list[tuple[str, str, float]], langs: list[dict], english: str) -> dict:
    """Breakdown cells and from_lang scatter rows, regrouped straight from
    the score rows and the language manifest."""
    meta = {entry["code"]: entry for entry in langs}
    cells: dict[str, list[float]] = {
        k: [] for k in ("in_in", "out_in", "in_out", "out_out", "to_eng", "from_eng", "avg")
    }
    by_src: dict[str, list[float]] = {}
    for src, tgt, value in rows:
        side = ("in" if meta[src]["in_pretrain"] else "out", "in" if meta[tgt]["in_pretrain"] else "out")
        cells["_".join(side)].append(value)
        if tgt == english:
            cells["to_eng"].append(value)
        if src == english:
            cells["from_eng"].append(value)
        cells["avg"].append(value)
        by_src.setdefault(src, []).append(value)
    breakdown = {
        k: {"value": (math.fsum(v) / len(v)) if v else None, "n": len(v)} for k, v in cells.items()
    }
    scatter = []
    excluded = []
    for code in sorted(by_src):
        size = int(meta[code].get("pretrain_size", 0))
        if size <= 0:
            excluded.append(code)
            continue
        values = by_src[code]
        scatter.append((code, size, math.fsum(values) / len(values), len(values)))
    return {"breakdown": breakdown, "scatter": scatter, "excluded": excluded}
