"""Reformulation kernels: scaffolded inputs, parallel pivots, and masking.

Each kernel maps a translation example (or an aligned sentence record) to a
reformulated training example. Kernels are pure: given the same arguments
and the same random draws they produce identical output, which is what
makes shard-level determinism possible further up the pipeline.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Sequence

from .corpus import Language, SentenceRecord, TranslationExample
from .errors import AlignmentError, ValidationError
from .textseg import Segmenter, segment, take_prefix, take_suffix

TAG_BASELINE = "baseline"
TAG_POSE = "pose"
TAG_PREFIX_SUFFIX = "prefix_suffix"
TAG_PARSE = "parse"
TAG_MIPS = "mips"
TAG_MASK = "mask"
TAG_SPAN_MASK = "span_mask"

TAGS = (
    TAG_BASELINE,
    TAG_POSE,
    TAG_PREFIX_SUFFIX,
    TAG_PARSE,
    TAG_MIPS,
    TAG_MASK,
    TAG_SPAN_MASK,
)

DEFAULT_SENTINEL = "<extra_id_{k}>"


@dataclass(frozen=True)
class ScaffoldFormat:
    """How scaffolds are glued onto inputs.

    ``target_lang_tag_template`` is a template with one ``{code}`` slot
    prepended to the input (e.g. ``"<2{code}> "``), or empty for none.
    """

    delimiter: str = "\n"
    target_lang_tag_template: str = ""

    def __post_init__(self) -> None:
        if not self.delimiter:
            raise ValidationError("scaffold delimiter must be nonempty")
        if self.target_lang_tag_template and "{code}" not in self.target_lang_tag_template:
            raise ValidationError("target-language tag template needs a {code} slot")

    def tag_for(self, target_lang: Language) -> str:
        if not self.target_lang_tag_template:
            return ""
        return self.target_lang_tag_template.format(code=target_lang.code)


@dataclass(frozen=True)
class ReformulatedExample:
    """A finished training example plus bookkeeping.

    ``input_parts`` keeps the pre-join pieces (base input, then scaffold
    pieces) so later length trimming can drop scaffold material without
    re-parsing the joined string.
    """

    input_text: str
    target_text: str
    tag: str
    meta: dict = field(default_factory=dict)
    input_parts: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.tag not in TAGS:
            raise ValidationError(f"unknown tag: {self.tag!r}")
        if not self.input_text or not self.target_text:
            raise ValidationError("reformulated texts must be nonempty")


def _round_half_up(x: float) -> int:
    # banker's rounding would bias prefix lengths at .5 boundaries
    return math.floor(x + 0.5)


def _join(parts: Sequence[str], fmt: ScaffoldFormat) -> str:
    return fmt.delimiter.join(part for part in parts if part)


def _base_input(ex: TranslationExample, fmt: ScaffoldFormat) -> str:
    return fmt.tag_for(ex.target_lang) + ex.source_text


def baseline(ex: TranslationExample, fmt: ScaffoldFormat | None = None) -> ReformulatedExample:
    """Direct translation pair, optionally with a target-language tag."""
    fmt = fmt or ScaffoldFormat()
    base = _base_input(ex, fmt)
    meta: dict = {}
    if ex.sentence_id is not None:
        meta["sentence_id"] = ex.sentence_id
    return ReformulatedExample(
        input_text=base,
        target_text=ex.target_text,
        tag=TAG_BASELINE,
        meta=meta,
        input_parts=(base,),
    )


def pose(
    ex: TranslationExample,
    u: float,
    seg: Segmenter | None = None,
    fmt: ScaffoldFormat | None = None,
) -> ReformulatedExample:
    """Append the first round(u * n) target units to the input."""
    if not 0.0 <= u <= 1.0:
        raise ValidationError(f"prefix fraction {u} outside [0, 1]")
    fmt = fmt or ScaffoldFormat()
    target_seg = segment(ex.target_text, seg)
    k = _round_half_up(u * len(target_seg.units))
    scaffold = take_prefix(target_seg, k)
    base = _base_input(ex, fmt)
    parts = (base, scaffold) if scaffold else (base,)
    meta: dict = {"prefix_fraction": u}
    if ex.sentence_id is not None:
        meta["sentence_id"] = ex.sentence_id
    return ReformulatedExample(
        input_text=_join(parts, fmt),
        target_text=ex.target_text,
        tag=TAG_POSE,
        meta=meta,
        input_parts=parts,
    )


def prefix_suffix(
    ex: TranslationExample,
    u: float,
    r: float = 0.5,
    seg: Segmenter | None = None,
    fmt: ScaffoldFormat | None = None,
) -> ReformulatedExample:
    """Split the scaffold budget between a target prefix and a target suffix.

    Total units k = round(u * n) as in pose; round(r * k) of them come from
    the front, the rest from the back, clamped so the two never overlap.
    """
    if not 0.0 <= u <= 1.0:
        raise ValidationError(f"prefix fraction {u} outside [0, 1]")
    if not 0.0 <= r <= 1.0:
        raise ValidationError(f"front share {r} outside [0, 1]")
    fmt = fmt or ScaffoldFormat()
    target_seg = segment(ex.target_text, seg)
    n = len(target_seg.units)
    k = _round_half_up(u * n)
    kp = _round_half_up(r * k)
    ks = min(k - kp, n - kp)
    front = take_prefix(target_seg, kp)
    back = take_suffix(target_seg, ks)
    base = _base_input(ex, fmt)
    parts = tuple(p for p in (base, front, back) if p)
    meta: dict = {"prefix_fraction": u, "front_share": r}
    if ex.sentence_id is not None:
        meta["sentence_id"] = ex.sentence_id
    return ReformulatedExample(
        input_text=_join(parts, fmt),
        target_text=ex.target_text,
        tag=TAG_PREFIX_SUFFIX,
        meta=meta,
        input_parts=parts,
    )


def _record_text(rec: SentenceRecord, lang: Language) -> str:
    text = rec.texts.get(lang.code)
    if not text:
        raise AlignmentError(f"record {rec.id}: missing text for language {lang.code}")
    return text


def parse_reform(
    rec: SentenceRecord,
    src: Language,
    tgt: Language,
    pivot: Language,
    fmt: ScaffoldFormat | None = None,
) -> ReformulatedExample:
    """Append the full pivot translation of the same sentence to the input.

    When the pair already involves the pivot language the scaffold would
    either duplicate the input or hand over the entire answer, so the
    example falls back to the baseline shape and is flagged in meta.
    """
    fmt = fmt or ScaffoldFormat()
    if src.code == tgt.code:
        raise ValidationError("source and target language must differ")
    source_text = _record_text(rec, src)
    target_text = _record_text(rec, tgt)
    example = TranslationExample(src, tgt, source_text, target_text, sentence_id=rec.id)
    if pivot.code in (src.code, tgt.code):
        fallback = baseline(example, fmt)
        return replace(fallback, meta={**fallback.meta, "parse_fallback": True})
    pivot_text = _record_text(rec, pivot)
    base = _base_input(example, fmt)
    parts = (base, pivot_text)
    return ReformulatedExample(
        input_text=_join(parts, fmt),
        target_text=target_text,
        tag=TAG_PARSE,
        meta={"sentence_id": rec.id, "scaffold_langs": [pivot.code]},
        input_parts=parts,
    )


def mips_reform(
    rec: SentenceRecord,
    src: Language,
    tgt: Language,
    aux_in: Language,
    aux_out: Language,
    fmt: ScaffoldFormat | None = None,
) -> ReformulatedExample:
    """Append one extra parallel translation to the input and another to the
    output, so four pairwise-distinct languages appear per example."""
    fmt = fmt or ScaffoldFormat()
    codes = [src.code, tgt.code, aux_in.code, aux_out.code]
    if len(set(codes)) != 4:
        raise ValidationError(f"languages must be pairwise distinct, got {codes}")
    source_text = _record_text(rec, src)
    target_text = _record_text(rec, tgt)
    aux_in_text = _record_text(rec, aux_in)
    aux_out_text = _record_text(rec, aux_out)
    example = TranslationExample(src, tgt, source_text, target_text, sentence_id=rec.id)
    base = _base_input(example, fmt)
    parts = (base, aux_in_text)
    return ReformulatedExample(
        input_text=_join(parts, fmt),
        target_text=_join((target_text, aux_out_text), fmt),
        tag=TAG_MIPS,
        meta={"sentence_id": rec.id, "scaffold_langs": [aux_in.code, aux_out.code]},
        input_parts=parts,
    )


def _sentinel(template: str, k: int) -> str:
    return template.format(k=k)


def _check_sentinel(template: str) -> None:
    if "{k}" not in template:
        raise ValidationError("sentinel template needs a {k} slot")


def _as_reformulated(ex: TranslationExample | ReformulatedExample) -> ReformulatedExample:
    if isinstance(ex, TranslationExample):
        return baseline(ex)
    return ex


def mask_tokens(
    ex: TranslationExample | ReformulatedExample,
    p: float,
    rng: random.Random,
    seg: Segmenter | None = None,
    sentinel_template: str = DEFAULT_SENTINEL,
) -> ReformulatedExample:
    """Independently replace each input unit with a sentinel at rate p.

    Sentinels are numbered left to right from 0 within the example. The
    target side is never touched. Exactly one rng draw is consumed per
    unit, so the draw sequence is independent of mask outcomes.
    """
    if not 0.0 < p < 1.0:
        raise ValidationError(f"mask rate {p} outside (0, 1)")
    _check_sentinel(sentinel_template)
    base = _as_reformulated(ex)
    source = base.input_text
    units = segment(source, seg).units
    masked = [rng.random() < p for _ in units]
    pieces: list[str] = []
    k = 0
    for (start, core_end, end), hit in zip(units, masked):
        if hit:
            pieces.append(_sentinel(sentinel_template, k))
            pieces.append(source[core_end:end])
            k += 1
        else:
            pieces.append(source[start:end])
    n_masked = sum(masked)
    realized = n_masked / len(units) if units else 0.0
    return ReformulatedExample(
        input_text="".join(pieces),
        target_text=base.target_text,
        tag=TAG_MASK,
        meta={**base.meta, "mask_rate": realized, "masked_units": n_masked},
        input_parts=("".join(pieces),),
    )


def _geometric_span(rng: random.Random, mean_span: int) -> int:
    if mean_span == 1:
        return 1
    # inversion sampling of a geometric law on {1, 2, ...} with the given mean
    u = rng.random()
    return 1 + int(math.log1p(-u) / math.log1p(-1.0 / mean_span))


def span_start_probability(p: float, mean_span: int) -> float:
    """Per-eligible-unit start probability that yields masked fraction p.

    A renewal cycle consists of the eligible wait (mean 1/q units), the
    span itself (mean_span units), and one forced unmasked gap unit that
    keeps spans from touching. Solving mean_span / (1/q + mean_span) = p
    for q gives p / (mean_span * (1 - p)).
    """
    return p / (mean_span * (1.0 - p))


def check_span_rate(p: float, mean_span: int) -> None:
    """Reject a rate span masking cannot deliver: above
    mean_span / (mean_span + 1) the start probability would exceed 1."""
    if span_start_probability(p, mean_span) > 1.0:
        raise ValidationError(
            f"mask rate {p} is unreachable with mean span {mean_span}; "
            f"span masking covers at most {mean_span}/{mean_span + 1} of the units"
        )


def span_mask(
    ex: TranslationExample | ReformulatedExample,
    p: float,
    mean_span: int,
    rng: random.Random,
    seg: Segmenter | None = None,
    sentinel_template: str = DEFAULT_SENTINEL,
) -> ReformulatedExample:
    """Mask contiguous unit spans, collapsing each span to one sentinel.

    Span starts are drawn at eligible units with probability
    span_start_probability(p, mean_span); span lengths are geometric with
    the given mean; a one-unit gap after every span keeps spans from ever
    being adjacent. Expected masked fraction is p; a p above
    mean_span / (mean_span + 1) cannot be met and is rejected.
    """
    if not 0.0 < p < 1.0:
        raise ValidationError(f"mask rate {p} outside (0, 1)")
    if mean_span < 1:
        raise ValidationError(f"mean span {mean_span} must be >= 1")
    check_span_rate(p, mean_span)
    _check_sentinel(sentinel_template)
    base = _as_reformulated(ex)
    source = base.input_text
    units = segment(source, seg).units
    q = span_start_probability(p, mean_span)

    pieces: list[str] = []
    i = 0
    k = 0
    n_masked = 0
    span_count = 0
    while i < len(units):
        if rng.random() < q:
            length = min(_geometric_span(rng, mean_span), len(units) - i)
            _, core_end, end = units[i + length - 1]
            pieces.append(_sentinel(sentinel_template, k))
            pieces.append(source[core_end:end])
            k += 1
            n_masked += length
            span_count += 1
            i += length
            if i < len(units):  # forced gap unit stays unmasked
                pieces.append(source[units[i][0] : units[i][2]])
                i += 1
        else:
            pieces.append(source[units[i][0] : units[i][2]])
            i += 1
    realized = n_masked / len(units) if units else 0.0
    return ReformulatedExample(
        input_text="".join(pieces),
        target_text=base.target_text,
        tag=TAG_SPAN_MASK,
        meta={
            **base.meta,
            "mask_rate": realized,
            "masked_units": n_masked,
            "span_count": span_count,
        },
        input_parts=("".join(pieces),),
    )
