"""Reformulation kernels: scaffolded inputs, parallel pivots, and masking.

Each kernel maps a translation example, plus any parallel texts it
scaffolds with, to a reformulated training example. Kernels are pure:
given the same arguments and the same random draws they produce identical
output, which is what makes shard-level determinism possible further up
the pipeline.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from string import Formatter
from typing import Sequence

from .corpus import Language, TranslationExample, cast_fields
from .errors import ValidationError
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

@dataclass(frozen=True)
class ScaffoldFormat:
    """How scaffolds are glued onto inputs.

    ``target_lang_tag_template`` is a template prepended to the input
    (e.g. ``"<2{code}> "``), or empty for none; its replacement fields are
    all ``{code}``, with no conversion or format spec.
    """

    delimiter: str = "\n"
    target_lang_tag_template: str = ""

    def __post_init__(self) -> None:
        cast_fields(self)
        if not self.delimiter:
            raise ValidationError("scaffold delimiter must be nonempty")
        template = self.target_lang_tag_template
        try:
            slots = {parts[1:] for parts in Formatter().parse(template) if parts[1] is not None}
        except ValueError:  # a stray brace
            slots = None
        if template and slots != {("code", "", None)}:
            raise ValidationError(
                f"target-language tag template needs {{code}} as its only field, got {template!r}"
            )

    def tag_for(self, target_lang: Language) -> str:
        if not self.target_lang_tag_template:
            return ""
        return self.target_lang_tag_template.format(code=target_lang.code)


@dataclass(frozen=True)
class ReformulatedExample:
    """A finished training example plus bookkeeping.

    ``input_parts`` keeps the nonempty pre-join pieces (base input, then
    scaffold pieces) so later length trimming can drop scaffold material
    without re-parsing the joined string.
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


def _scaffolded(
    ex: TranslationExample,
    extra: Sequence[str],
    tag: str,
    meta: dict,
    fmt: ScaffoldFormat | None,
    target_text: str | None = None,
) -> ReformulatedExample:
    """The example's base input (target-language tag plus source) followed
    by the nonempty ``extra`` parts, joined by the format's delimiter. The
    sentence id, when set, goes into ``meta``."""
    fmt = fmt or ScaffoldFormat()
    parts = (fmt.tag_for(ex.target_lang) + ex.source_text, *filter(None, extra))
    if ex.sentence_id is not None:
        meta["sentence_id"] = ex.sentence_id
    return ReformulatedExample(
        input_text=fmt.delimiter.join(parts),
        target_text=ex.target_text if target_text is None else target_text,
        tag=tag,
        meta=meta,
        input_parts=parts,
    )


def baseline(ex: TranslationExample, fmt: ScaffoldFormat | None = None) -> ReformulatedExample:
    """Direct translation pair, optionally with a target-language tag."""
    return _scaffolded(ex, (), TAG_BASELINE, {}, fmt)


def _target_scaffold(
    ex: TranslationExample,
    u: float,
    r: float,
    seg: Segmenter | None,
    fmt: ScaffoldFormat | None,
    tag: str,
    meta: dict,
) -> ReformulatedExample:
    """``prefix_suffix`` under the given tag and meta."""
    if not 0.0 <= u <= 1.0:
        raise ValidationError(f"prefix fraction {u} outside [0, 1]")
    if not 0.0 <= r <= 1.0:
        raise ValidationError(f"front share {r} outside [0, 1]")
    target_seg = segment(ex.target_text, seg)
    n = len(target_seg)
    k = _round_half_up(u * n)
    kp = _round_half_up(r * k)
    ks = min(k - kp, n - kp)
    front = take_prefix(target_seg, kp)
    back = take_suffix(target_seg, ks)
    return _scaffolded(ex, (front, back), tag, meta, fmt)


def pose(
    ex: TranslationExample,
    u: float,
    seg: Segmenter | None = None,
    fmt: ScaffoldFormat | None = None,
) -> ReformulatedExample:
    """Append the first round(u * n) target units to the input: the
    prefix-suffix scaffold with every unit in front."""
    return _target_scaffold(ex, u, 1.0, seg, fmt, TAG_POSE, {"prefix_fraction": u})


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
    meta = {"prefix_fraction": u, "front_share": r}
    return _target_scaffold(ex, u, r, seg, fmt, TAG_PREFIX_SUFFIX, meta)


def parse_reform(
    ex: TranslationExample,
    pivot: Language,
    pivot_text: str,
    fmt: ScaffoldFormat | None = None,
) -> ReformulatedExample:
    """Append ``pivot_text``, the full pivot translation of the same
    sentence, to the input.

    When the pair already involves the pivot language the scaffold would
    either duplicate the input or hand over the entire answer, so the
    example falls back to the baseline shape and is flagged in meta.
    """
    if pivot.code in (ex.source_lang.code, ex.target_lang.code):
        return _scaffolded(ex, (), TAG_BASELINE, {"parse_fallback": True}, fmt)
    if not pivot_text:
        raise ValidationError(f"empty scaffold text for language {pivot.code}")
    return _scaffolded(ex, (pivot_text,), TAG_PARSE, {"scaffold_langs": [pivot.code]}, fmt)


def mips_reform(
    ex: TranslationExample,
    aux_in: Language,
    aux_out: Language,
    aux_in_text: str,
    aux_out_text: str,
    fmt: ScaffoldFormat | None = None,
) -> ReformulatedExample:
    """Append one extra parallel translation to the input and another to the
    output, so four pairwise-distinct languages appear per example."""
    codes = [ex.source_lang.code, ex.target_lang.code, aux_in.code, aux_out.code]
    if len(set(codes)) != 4:
        raise ValidationError(f"languages must be pairwise distinct, got {codes}")
    for lang, text in ((aux_in, aux_in_text), (aux_out, aux_out_text)):
        if not text:
            raise ValidationError(f"empty scaffold text for language {lang.code}")
    fmt = fmt or ScaffoldFormat()
    meta = {"scaffold_langs": [aux_in.code, aux_out.code]}
    target_text = ex.target_text + fmt.delimiter + aux_out_text
    return _scaffolded(ex, (aux_in_text,), TAG_MIPS, meta, fmt, target_text)


def _as_reformulated(ex: TranslationExample | ReformulatedExample) -> ReformulatedExample:
    if isinstance(ex, TranslationExample):
        return baseline(ex)
    return ex


def _mask_spans(
    base: ReformulatedExample,
    units: Sequence[tuple[int, int, int]],
    spans: Sequence[tuple[int, int]],
    tag: str,
    **meta,
) -> ReformulatedExample:
    """Collapse each ``(first unit, length)`` span of the input to one
    sentinel ``<extra_id_{k}>``, numbered from 0 left to right, that keeps
    the span's trailing separators. Units tile the input, so the text
    between two spans is one slice of it."""
    source = base.input_text
    pieces: list[str] = []
    pos = n_masked = 0
    for k, (first, length) in enumerate(spans):
        _, core_end, end = units[first + length - 1]
        pieces += (source[pos : units[first][0]], f"<extra_id_{k}>", source[core_end:end])
        pos = end
        n_masked += length
    pieces.append(source[pos:])
    text = "".join(pieces)
    realized = n_masked / len(units) if units else 0.0
    return ReformulatedExample(
        input_text=text,
        target_text=base.target_text,
        tag=tag,
        meta={**base.meta, "mask_rate": realized, "masked_units": n_masked, **meta},
        input_parts=(text,),
    )


def mask_tokens(
    ex: TranslationExample | ReformulatedExample,
    p: float,
    rng: random.Random,
    seg: Segmenter | None = None,
) -> ReformulatedExample:
    """Independently replace each input unit with a sentinel at rate p.

    Sentinels are numbered left to right from 0 within the example. The
    target side is never touched. Exactly one rng draw is consumed per
    unit, so the draw sequence is independent of mask outcomes.
    """
    if not 0.0 < p < 1.0:
        raise ValidationError(f"mask rate {p} outside (0, 1)")
    base = _as_reformulated(ex)
    units = segment(base.input_text, seg).units
    spans = [(i, 1) for i in range(len(units)) if rng.random() < p]
    return _mask_spans(base, units, spans, TAG_MASK)


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
    base = _as_reformulated(ex)
    units = segment(base.input_text, seg).units
    q = span_start_probability(p, mean_span)
    spans: list[tuple[int, int]] = []
    i = 0
    while i < len(units):
        if rng.random() < q:
            length = min(_geometric_span(rng, mean_span), len(units) - i)
            spans.append((i, length))
            i += length + 1  # the forced gap unit stays unmasked
        else:
            i += 1
    return _mask_spans(base, units, spans, TAG_SPAN_MASK, span_count=len(spans))
