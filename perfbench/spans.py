"""In-memory span tracing by wrapping reformkit's public functions.

Each function is replaced at the name its caller looks it up by (for
example ``reformkit.builder.segment`` and ``reformkit.reformulate.segment``),
so the program itself is unchanged. A span is (name, start, end, parent);
a layer's self time is its span time minus its child spans. The traced run
uses one worker, so every span is recorded in this process.

``textseg.segment`` is wrapped too, because ``count_units`` looks it up
there: every segmentation is a ``textseg.segment`` span, and the
``count_units`` span keeps only its own work. Calls made through a name
that is not wrapped stay inside the caller's span.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import statistics
import time
import tracemalloc
from pathlib import Path

import reformkit
import reformkit.builder
import reformkit.cli
import reformkit.corpus
import reformkit.reformulate
import reformkit.textseg

# (owner, attribute, span name, argument recorder)
_TEXT = lambda a, kw: a[0]  # noqa: E731 - segment(text, seg)
_DRAWS = lambda a, kw: a  # noqa: E731 - sample_pairs(corpus, n, seed, record_ids, role)

TARGETS = [
    (reformkit, "load_bilingual", "corpus.load", None),
    (reformkit, "load_multiparallel", "corpus.load", None),
    (reformkit.corpus.MultiParallelCorpus, "language", "corpus.language", None),
    (reformkit.builder, "example_from_record", "corpus.example_from_record", None),
    (reformkit.builder, "corpus_digest", "corpus.corpus_digest", None),
    (reformkit.builder, "segment", "textseg.segment", _TEXT),
    (reformkit.reformulate, "segment", "textseg.segment", _TEXT),
    (reformkit.textseg, "segment", "textseg.segment", _TEXT),
    (reformkit.builder, "count_units", "textseg.count_units", None),
    (reformkit.builder, "take_prefix", "textseg.take_prefix", None),
    (reformkit.reformulate, "take_prefix", "textseg.take_prefix", None),
    (reformkit.reformulate, "take_suffix", "textseg.take_suffix", None),
    (reformkit.builder, "baseline", "reformulate.baseline", None),
    (reformkit.builder, "pose", "reformulate.pose", None),
    (reformkit.builder, "prefix_suffix", "reformulate.prefix_suffix", None),
    (reformkit.builder, "span_mask", "reformulate.span_mask", None),
    (reformkit.builder, "parse_reform", "reformulate.parse_reform", None),
    (reformkit.builder, "mips_reform", "reformulate.mips_reform", None),
    (reformkit.builder, "policy_at", "schedule.policy_at", None),
    (reformkit, "build", "builder.build", None),
    (reformkit.builder, "sample_pairs", "builder.sample_pairs", _DRAWS),
    (reformkit, "stats", "builder.stats", None),
    (reformkit, "chrfpp", "metrics.chrfpp", None),
    (reformkit, "bleu", "metrics.bleu", None),
    (reformkit, "average_directions", "metrics.average_directions", None),
    (reformkit.cli, "breakdown", "analysis.breakdown", None),
    (reformkit.cli, "pretrain_scatter", "analysis.pretrain_scatter", None),
    (reformkit.cli, "main", "cli.main", None),
]


class Tracer:
    """Records spans while installed; ``uninstall`` restores every name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.args: list = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._off = [False]

    @contextlib.contextmanager
    def paused(self):
        """Run a block without recording spans (the untimed fault probes)."""
        self._off[0] = True
        try:
            yield
        finally:
            self._off[0] = False

    def _wrap(self, name: str, fn, record):
        names, starts, ends, parents, args, stack, off = (
            self.names, self.starts, self.ends, self.parents, self.args, self._stack, self._off,
        )

        @functools.wraps(fn)
        def traced(*a, **kw):
            if off[0]:
                return fn(*a, **kw)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            args.append(record(a, kw) if record else None)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                return fn(*a, **kw)
            finally:
                ends[idx] = time.perf_counter_ns()
                starts[idx] = t0
                stack.pop()

        return traced

    def install(self) -> None:
        for owner, attr, name, record in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, record))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[int]:
        """Span duration minus the durations of its direct children, in ns."""
        self_ns = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                self_ns[parent] -= self.ends[idx] - self.starts[idx]
        return self_ns

    def roots(self) -> list[int]:
        """Index of the outermost span each span ran under."""
        out: list[int] = []
        for idx, parent in enumerate(self.parents):
            out.append(idx if parent < 0 else out[parent])
        return out

    def write(self, path: Path) -> None:
        """Spans as gzip TSV: index, name, start_ns, end_ns, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for idx, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{idx}\t{n}\t{s}\t{e}\t{p}\n")


# Every per-layer metric with its unit, in the order the result lists them.
UNITS = {
    "corpus.load_s": "s",
    "corpus.language.calls_per_example": "count",
    "corpus.language.us_per_call": "us",
    "corpus.example_from_record.us_per_call": "us",
    "corpus.corpus_digest_s": "s",
    "textseg.segment.calls_per_example": "count",
    "textseg.segment.us_per_call": "us",
    "textseg.segment.chars_per_call": "count",
    "textseg.segment.distinct_ratio": "ratio",
    "textseg.count_units.calls_per_example": "count",
    "textseg.count_units.us_per_call": "us",
    "textseg.take_prefix.us_per_call": "us",
    "textseg.take_suffix.us_per_call": "us",
    "reformulate.baseline.us_per_call": "us",
    "reformulate.pose.us_per_call": "us",
    "reformulate.prefix_suffix.us_per_call": "us",
    "reformulate.span_mask.us_per_call": "us",
    "reformulate.parse_reform.us_per_call": "us",
    "reformulate.mips_reform.us_per_call": "us",
    "schedule.policy_at.us_per_call": "us",
    "builder.self_ms_per_kex": "ms",
    "builder.sample.us_per_draw": "us",
    "builder.sample.bytes_per_draw": "B",
    "builder.truncated_per_example": "ratio",
    "builder.shard_bytes_per_example": "B",
    "builder.stats.us_per_example": "us",
    "metrics.chrfpp.ms_per_direction": "ms",
    "metrics.bleu.ms_per_direction": "ms",
    "metrics.average_directions.ms": "ms",
    "analysis.breakdown.ms": "ms",
    "analysis.pretrain_scatter.ms": "ms",
    "cli.analyze.self_ms": "ms",
}


def sample_bytes_per_draw(tracer: Tracer) -> float:
    """Peak bytes ``sample_pairs`` allocates per draw, by re-running its
    first traced call under tracemalloc (kept out of the timed spans)."""
    calls = [tracer.args[i] for i, name in enumerate(tracer.names) if name == "builder.sample_pairs"]
    if not calls:
        return 0.0
    args = calls[0]
    tracemalloc.start()
    try:
        reformkit.builder.sample_pairs(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / args[1]


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, examples_built: int, stats_examples: int) -> dict:
    """Per-layer figures from the spans of one traced run; a layer the
    workload never calls reads 0. ``examples_built`` is the number of
    examples all traced builds wrote, ``stats_examples`` the number each
    ``stats`` call recounted."""
    self_ns = tracer.self_times()
    roots = tracer.roots()
    by_name: dict[str, list[int]] = {}
    for idx, name in enumerate(tracer.names):
        by_name.setdefault(name, []).append(idx)

    def per_call_us(name: str) -> float:
        return _median([self_ns[i] / 1e3 for i in by_name.get(name, [])])

    def total_ms(name: str) -> float:
        return _median([(tracer.ends[i] - tracer.starts[i]) / 1e6 for i in by_name.get(name, [])])

    def calls_per_example(name: str) -> float:
        in_builds = sum(1 for i in by_name.get(name, []) if tracer.names[roots[i]] == "builder.build")
        return in_builds / examples_built if examples_built else 0.0

    # distinct texts are counted within each outermost call (one build or one
    # recount), since every round segments the same inputs again
    seg_calls = by_name.get("textseg.segment", [])
    seg_texts = [tracer.args[i] for i in seg_calls]
    seg_distinct = len({(roots[i], tracer.args[i]) for i in seg_calls})
    draws = [tracer.args[i][1] for i in by_name.get("builder.sample_pairs", [])]
    stats_calls = by_name.get("builder.stats", [])
    cli_calls = by_name.get("cli.main", [])
    build_self_ms = sum(self_ns[i] for i in by_name.get("builder.build", [])) / 1e6

    metrics = {
        "corpus.load_s": total_ms("corpus.load") / 1e3,
        "corpus.language.calls_per_example": calls_per_example("corpus.language"),
        "corpus.language.us_per_call": per_call_us("corpus.language"),
        "corpus.example_from_record.us_per_call": per_call_us("corpus.example_from_record"),
        "corpus.corpus_digest_s": total_ms("corpus.corpus_digest") / 1e3,
        "textseg.segment.calls_per_example": calls_per_example("textseg.segment"),
        "textseg.segment.us_per_call": per_call_us("textseg.segment"),
        "textseg.segment.chars_per_call": (
            sum(len(t) for t in seg_texts) / len(seg_texts) if seg_texts else 0.0
        ),
        "textseg.segment.distinct_ratio": seg_distinct / len(seg_texts) if seg_texts else 0.0,
        "textseg.count_units.calls_per_example": calls_per_example("textseg.count_units"),
        "textseg.count_units.us_per_call": per_call_us("textseg.count_units"),
        "textseg.take_prefix.us_per_call": per_call_us("textseg.take_prefix"),
        "textseg.take_suffix.us_per_call": per_call_us("textseg.take_suffix"),
    }
    for kernel in ("baseline", "pose", "prefix_suffix", "span_mask", "parse_reform", "mips_reform"):
        metrics[f"reformulate.{kernel}.us_per_call"] = per_call_us(f"reformulate.{kernel}")
    metrics.update(
        {
            "schedule.policy_at.us_per_call": per_call_us("schedule.policy_at"),
            "builder.self_ms_per_kex": build_self_ms / (examples_built / 1000) if examples_built else 0.0,
            "builder.sample.us_per_draw": _median(
                [
                    (tracer.ends[i] - tracer.starts[i]) / 1e3 / n
                    for i, n in zip(by_name.get("builder.sample_pairs", []), draws)
                ]
            ),
            "builder.stats.us_per_example": _median(
                [(tracer.ends[i] - tracer.starts[i]) / 1e3 / stats_examples for i in stats_calls]
            ),
            "metrics.chrfpp.ms_per_direction": total_ms("metrics.chrfpp"),
            "metrics.bleu.ms_per_direction": total_ms("metrics.bleu"),
            "metrics.average_directions.ms": total_ms("metrics.average_directions"),
            "analysis.breakdown.ms": total_ms("analysis.breakdown"),
            "analysis.pretrain_scatter.ms": total_ms("analysis.pretrain_scatter"),
            "cli.analyze.self_ms": _median([self_ns[i] / 1e6 for i in cli_calls]),
        }
    )
    return metrics
