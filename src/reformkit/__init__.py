"""Deterministic data reformulation for translation finetuning.

The package builds seeded, shardable JSONL training sets where each
example's input (and sometimes output) is augmented with scaffold text:
target-prefix scaffolds, parallel-pivot scaffolds, mixed-language parallel
scaffolds, or sentinel masking. Step-indexed schedules decide how much of
the training stream is reformulated, and corpus-level BLEU / chrF++ plus
pretraining-coverage breakdowns close the loop on evaluation.
"""

from .analysis import (
    BreakdownReport,
    Cell,
    ScatterReport,
    ScatterRow,
    breakdown,
    pretrain_scatter,
    scatter_tsv,
    spearman,
)
from .builder import (
    BuildConfig,
    BuildManifest,
    batch_plan,
    build,
    sample_pairs,
    stats,
    stats_from_counts,
)
from .corpus import (
    BilingualCorpus,
    Language,
    MultiParallelCorpus,
    TranslationExample,
    corpus_digest,
    example_from_record,
    load_bilingual,
    load_manifest,
    load_multiparallel,
    split,
    write_bilingual,
    write_multiparallel,
)
from .errors import AlignmentError, ReformkitError, UsageError, ValidationError
from .metrics import (
    DirectionScore,
    ScoreConfig,
    average_directions,
    bleu,
    chrfpp,
    score,
)
from .reformulate import (
    ReformulatedExample,
    ScaffoldFormat,
    baseline,
    mask_tokens,
    mips_reform,
    parse_reform,
    pose,
    prefix_suffix,
    span_mask,
    span_start_probability,
)
from .schedule import (
    MaskSpec,
    SchedulePolicy,
    StepPolicy,
    curriculum1,
    curriculum2,
    curriculum3,
    curve_tsv,
    mask_preset,
    mask_window,
    mix,
    policy_at,
    window_first,
)
from .textseg import Segmentation, Segmenter, count_units, segment, take_prefix, take_suffix

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "BilingualCorpus",
    "BreakdownReport",
    "BuildConfig",
    "BuildManifest",
    "Cell",
    "DirectionScore",
    "Language",
    "MaskSpec",
    "MultiParallelCorpus",
    "ReformkitError",
    "ReformulatedExample",
    "ScaffoldFormat",
    "ScatterReport",
    "ScatterRow",
    "SchedulePolicy",
    "ScoreConfig",
    "Segmentation",
    "Segmenter",
    "StepPolicy",
    "TranslationExample",
    "UsageError",
    "ValidationError",
    "average_directions",
    "baseline",
    "batch_plan",
    "bleu",
    "breakdown",
    "build",
    "chrfpp",
    "corpus_digest",
    "count_units",
    "curriculum1",
    "curriculum2",
    "curriculum3",
    "curve_tsv",
    "example_from_record",
    "load_bilingual",
    "load_manifest",
    "load_multiparallel",
    "mask_preset",
    "mask_tokens",
    "mask_window",
    "mips_reform",
    "mix",
    "parse_reform",
    "policy_at",
    "pose",
    "prefix_suffix",
    "pretrain_scatter",
    "sample_pairs",
    "scatter_tsv",
    "score",
    "segment",
    "span_mask",
    "span_start_probability",
    "spearman",
    "split",
    "stats",
    "stats_from_counts",
    "take_prefix",
    "take_suffix",
    "window_first",
    "write_bilingual",
    "write_multiparallel",
]
