"""Dataset assembly: sampling, scheduling, reformulation, sharded JSONL output.

Determinism contract: every emitted byte is a pure function of (corpus,
config). Each example gets its own RNG substream keyed by (seed, split,
example index), shard boundaries come from config alone, and shard files
are written independently, so worker count and scheduling order can never
change the output.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import (
    BilingualCorpus,
    MultiParallelCorpus,
    _substream,
    cast_fields,
    check_seed,
    corpus_digest,
    decode,
    example_from_record,
    partition,
    read_lines,
    write_atomic,
)
from .errors import ValidationError
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
)
from .schedule import (
    KIND_FIELDS,
    KIND_MASK_WINDOW,
    MASK_PRESETS,
    SchedulePolicy,
    StepPolicy,
    mask_preset,
    mix,
    policy_at,
    policy_to_dict,
)
from .textseg import Segmenter, count_units, read_sidecar_counts, segment, take_prefix

# Per reform: schedule kinds it takes, reform-specific fields it reads, corpus and batch needs.
Reform = namedtuple("Reform", "kinds reads parallel_scaffold min_langs", defaults=((), False, 0))
_SCAFFOLD_KINDS = tuple(kind for kind in KIND_FIELDS if kind != KIND_MASK_WINDOW)
REFORMS = {
    "none": Reform(()),
    "pose": Reform(_SCAFFOLD_KINDS),
    "prefix_suffix": Reform(_SCAFFOLD_KINDS, ("front_share",)),
    "parse": Reform(_SCAFFOLD_KINDS, ("pivot",), parallel_scaffold=True),
    "mips": Reform(_SCAFFOLD_KINDS, parallel_scaffold=True, min_langs=4),
    **{name: Reform((KIND_MASK_WINDOW,)) for name in MASK_PRESETS},
}
_REFORM_FIELDS = {name for row in REFORMS.values() for name in row.reads}

_SPLITS = ("train", "valid", "test")
_SHARD_NAME = re.compile(r"(train|valid|test)-[0-9]{5,}\.jsonl")


@dataclass(frozen=True)
class BuildConfig:
    """Everything a build depends on; the manifest echoes it verbatim.

    ``schedule.total_steps`` is derived as ceil(n_train / batch_size) at
    build time regardless of the value stored here, since the step count
    follows from the data. ``split_fracs`` partitions corpus records into
    train/valid/test pools before any sampling happens.
    """

    task: str
    reform: str
    n_train: int
    batch_size: int
    seed: int = 0
    schedule: SchedulePolicy | None = None
    n_valid: int = 0
    n_test: int = 0
    max_len: int = 256
    shard_size: int = 50_000
    pivot: str = "eng_Latn"
    fmt: ScaffoldFormat = field(default_factory=ScaffoldFormat)
    seg: Segmenter = field(default_factory=Segmenter)
    split_fracs: tuple[float, float, float] = (0.9, 0.05, 0.05)
    front_share: float = 0.5

    def __post_init__(self) -> None:
        cast_fields(self)
        check_seed(self.seed)
        if self.task not in ("bilingual", "multiparallel"):
            raise ValidationError(f"unknown task: {self.task!r}")
        if self.reform not in REFORMS:
            raise ValidationError(f"unknown reformulation: {self.reform!r}")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.n_train < self.batch_size:
            raise ValidationError("n_train must be >= batch_size")
        if self.n_valid < 0 or self.n_test < 0:
            raise ValidationError("split sizes must be nonnegative")
        if self.max_len < 1:
            raise ValidationError("max_len must be >= 1")
        if self.shard_size < 1:
            raise ValidationError("shard_size must be >= 1")
        if len(self.split_fracs) != 3 or any(f < 0 for f in self.split_fracs):
            raise ValidationError("split_fracs must be three nonnegative fractions")
        if sum(self.split_fracs) > 1.0 + 1e-9:
            raise ValidationError("split_fracs must sum to at most 1")
        if not 0.0 <= self.front_share <= 1.0:
            raise ValidationError("front_share must be in [0, 1]")
        row = REFORMS[self.reform]
        if self.schedule is not None and self.schedule.kind not in row.kinds:
            raise ValidationError(f"reform {self.reform} takes no {self.schedule.kind} schedule")
        for f in fields(self):
            if f.name in _REFORM_FIELDS.difference(row.reads) and getattr(self, f.name) != f.default:
                raise ValidationError(f"reform {self.reform} takes no {f.name}")

    @property
    def total_steps(self) -> int:
        return math.ceil(self.n_train / self.batch_size)

    def effective_schedule(self) -> SchedulePolicy | None:
        """The schedule actually used: total_steps re-derived, a mask preset
        expanded, full reform for a scaffold reform without one, none for none."""
        T = self.total_steps
        if self.schedule is not None:
            return replace(self.schedule, total_steps=T)
        if not REFORMS[self.reform].kinds:
            return None
        return mask_preset(self.reform, T) if self.reform in MASK_PRESETS else mix(1.0, T)

    def to_dict(self) -> dict:
        schedule = self.effective_schedule()
        return {
            **asdict(self),
            "schedule": None if schedule is None else policy_to_dict(schedule),
            "split_fracs": list(self.split_fracs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BuildConfig":
        """Inverse of ``to_dict``, through ``corpus.decode``. A stored
        ``schedule.total_steps`` is checked and then re-derived at build
        time; an absent one is taken from ``n_train`` and ``batch_size``."""
        cfg = decode(cls, {**data, "schedule": None} if isinstance(data, dict) else data)
        if data.get("schedule") is None:
            return cfg
        schedule = decode(SchedulePolicy, data["schedule"], "schedule", total_steps=cfg.total_steps)
        return replace(cfg, schedule=schedule)


@dataclass(frozen=True)
class BuildManifest:
    config: dict
    corpus_digest: str
    splits: dict

    def as_dict(self) -> dict:
        return asdict(self)


def sample_pairs(
    corpus: MultiParallelCorpus,
    n: int,
    seed: int,
    record_ids: Sequence[int] | None = None,
    role: str = "sample",
) -> list[tuple[int, str, str]]:
    """Uniform draws over (record, ordered language pair), src != tgt.

    A bilingual corpus has one direction, source to target. Without
    replacement when n fits in the combination space, with replacement
    otherwise. Restricting ``record_ids`` keeps train, valid, and test
    draws disjoint at the sentence level.
    """
    codes = corpus.codes
    dirs = 1 if isinstance(corpus, BilingualCorpus) else len(codes) * (len(codes) - 1)
    if not dirs:
        raise ValidationError("need at least 2 languages to form direction pairs")
    if n < 1:
        raise ValidationError("n must be >= 1")
    record_ids = list(range(len(corpus)) if record_ids is None else record_ids)
    if not record_ids:
        raise ValidationError("empty record pool")
    total = len(record_ids) * dirs
    rng = _substream(seed, role, 0)
    if n <= total:
        picks = rng.sample(range(total), n)
    else:
        picks = [rng.randrange(total) for _ in range(n)]
    # index -> (record, source slot, target slot other than the source)
    out = []
    for idx in picks:
        rec, rem = divmod(idx, dirs)
        s, t = divmod(rem, len(codes) - 1)
        out.append((record_ids[rec], codes[s], codes[t + (t >= s)]))
    return out


def _truncate_parts(
    parts: tuple[str, ...], max_len: int, seg: Segmenter, fmt: ScaffoldFormat
) -> tuple[str, bool, int]:
    """Trim the last part until the joined input fits in max_len units: a
    scaffold part is dropped once it is empty, and a lone base is cut to
    max_len >= 1 units. The last part can always give up a unit, because a
    scaffold part is nonempty and a lone base over max_len has two or more.
    The target side is never touched by construction. Returns the joined
    input, whether it was trimmed, and its unit count."""
    truncated = False
    while True:
        joined = fmt.delimiter.join(parts)
        n_units = count_units(joined, seg)
        over = n_units - max_len
        if over <= 0:
            return joined, truncated, n_units
        truncated = True
        last = segment(parts[-1], seg)
        kept = take_prefix(last, max(len(last) - over, 0))
        parts = parts[:-1] + ((kept,) if kept else ())


def _draw_aux(rng, codes: Sequence[str], src: str, tgt: str) -> list[str]:
    """``rng.sample([c for c in codes if c not in (src, tgt)], 2)`` for sorted
    ``codes``, without building that list: ``sample`` reads only the length
    and items of its population, so it draws the same indices j into it,
    and j maps past the sorted positions lo < hi of src and tgt."""
    lo, hi = sorted((bisect_left(codes, src), bisect_left(codes, tgt)))
    return [codes[j + (j >= lo) + (j >= hi - 1)] for j in rng.sample(range(len(codes) - 2), 2)]


class _LazySubstream:
    """``rng()`` gives an example's ``_substream``, seeded at the first call,
    so an example that draws nothing (a baseline, a fixed prefix, a mask
    preset outside its window) skips the seeding. A class, not
    ``functools.cache``, because building that wrapper costs about half the
    seeding it saves."""

    __slots__ = ("_key", "_rng")

    def __init__(self, seed: int, role: str, index: int) -> None:
        self._key = (seed, role, index)
        self._rng: random.Random | None = None

    def __call__(self) -> random.Random:
        if self._rng is None:
            self._rng = _substream(*self._key)
        return self._rng


def _build_example(
    corpus,
    cfg: BuildConfig,
    step_policy: StepPolicy | None,
    split: str,
    index: int,
    assignment: tuple[int, str, str],
    mips_codes: Sequence[str],
) -> tuple[dict, int]:
    """One example and the unit count of its input. ``step_policy`` is the
    schedule at the example's step, ``None`` outside train or without a
    schedule. A mips example draws its two extra languages from
    ``mips_codes``, the corpus codes sorted once per shard job."""
    rng = _LazySubstream(cfg.seed, f"example:{split}", index)
    item_id, src_code, tgt_code = assignment
    example = example_from_record(corpus, item_id, src_code, tgt_code)

    step = index // cfg.batch_size if split == "train" else None
    reform_on = False
    if step_policy is not None:
        fraction = step_policy.reform_fraction
        if 0.0 < fraction < 1.0:
            reform_on = rng().random() < fraction
        else:
            reform_on = fraction >= 1.0

    if not reform_on or step_policy.mask is not None:  # a mask reform masks below
        out = baseline(example, cfg.fmt)
    elif cfg.reform in ("pose", "prefix_suffix"):
        prefix = rng().random() if step_policy.prefix is None else step_policy.prefix
        if cfg.reform == "pose":
            out = pose(example, prefix, cfg.seg, cfg.fmt)
        else:
            out = prefix_suffix(example, prefix, cfg.front_share, cfg.seg, cfg.fmt)
    elif cfg.reform == "parse":
        out = parse_reform(
            example, corpus.language(cfg.pivot), corpus.text(item_id, cfg.pivot), cfg.fmt
        )
    else:  # mips
        aux_in, aux_out = _draw_aux(rng(), mips_codes, src_code, tgt_code)
        out = mips_reform(
            example,
            corpus.language(aux_in),
            corpus.language(aux_out),
            corpus.text(item_id, aux_in),
            corpus.text(item_id, aux_out),
            cfg.fmt,
        )

    input_text, truncated, input_units = _truncate_parts(
        out.input_parts, cfg.max_len, cfg.seg, cfg.fmt
    )

    if reform_on and step_policy.mask is not None:
        interim = ReformulatedExample(input_text, out.target_text, out.tag, out.meta)
        mask_cfg = step_policy.mask
        if mask_cfg.span:
            out = span_mask(interim, mask_cfg.p, mask_cfg.mean_span, rng(), cfg.seg)
        else:
            out = mask_tokens(interim, mask_cfg.p, rng(), cfg.seg)
        input_text = out.input_text
        # masking rewrote the input, and a masked span is one unit now
        input_units = count_units(input_text, cfg.seg)

    meta = {**out.meta, "source_lang": src_code, "target_lang": tgt_code, "truncated": truncated}
    if step is not None:
        meta["step_index"] = step
    return {"input": input_text, "target": out.target_text, "tag": out.tag, "meta": meta}, input_units


_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))


@dataclass
class _Tally:
    """Tag counts and unit-length histograms over examples. ``truncated`` is
    counted by the shard jobs only: a shard line read back by ``stats`` need
    not carry it."""

    tags: Counter = field(default_factory=Counter)
    input_lengths: Counter = field(default_factory=Counter)
    target_lengths: Counter = field(default_factory=Counter)
    truncated: int = 0

    def add(self, tag: str, input_units: int, target_units: int) -> None:
        self.tags[tag] += 1
        self.input_lengths[input_units] += 1
        self.target_lengths[target_units] += 1

    def merge(self, other: "_Tally") -> None:
        self.tags.update(other.tags)
        self.input_lengths.update(other.input_lengths)
        self.target_lengths.update(other.target_lengths)
        self.truncated += other.truncated

    def summary(self) -> dict:
        return {
            "n_examples": sum(self.tags.values()),
            "tags": dict(sorted(self.tags.items())),
            "input_length": _counter_stats(self.input_lengths),
            "target_length": _counter_stats(self.target_lengths),
        }


def _shard_job(
    corpus,
    cfg: BuildConfig,
    split: str,
    start: int,
    assignments: Sequence[tuple[int, str, str]],
    out_path: Path,
) -> tuple[dict, _Tally]:
    tally = _Tally()
    lines = []
    step_policy = None
    schedule = cfg.effective_schedule() if split == "train" else None
    mips_codes = tuple(sorted(corpus.codes))
    for offset, assignment in enumerate(assignments):
        index = start + offset
        if schedule is not None and (offset == 0 or index % cfg.batch_size == 0):
            # the examples of a step share its policy: evaluate it once
            step_policy = policy_at(index // cfg.batch_size, schedule)
        obj, input_units = _build_example(
            corpus, cfg, step_policy, split, index, assignment, mips_codes
        )
        tally.add(obj["tag"], input_units, count_units(obj["target"], cfg.seg))
        tally.truncated += obj["meta"]["truncated"]
        lines.append(_ENCODER.encode(obj) + "\n")
    payload = "".join(lines).encode("utf-8")
    write_atomic(out_path, (payload,))
    shard = {
        "path": out_path.name,
        "n_examples": len(assignments),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    return shard, tally


# The build-wide leading arguments of ``_shard_job`` in a pool worker process,
# set once per worker by the pool initializer, so that a job carries only its
# own (split, start, assignments, out_path).
_worker_build_args: tuple = ()


def _init_worker(*build_args) -> None:
    global _worker_build_args
    _worker_build_args = build_args


def _worker_shard_job(job: tuple) -> tuple[dict, _Tally]:
    return _shard_job(*_worker_build_args, *job)


def _counter_stats(counter: Counter) -> dict:
    n = counter.total()
    if n == 0:
        return {"mean": None, "median": None}
    total = sum(length * count for length, count in counter.items())
    # the sorted expanded list's item k is the first length whose
    # cumulative count exceeds k; for odd n the two middle items are one
    lengths = sorted(counter)
    cumulative = list(accumulate(counter[length] for length in lengths))
    lower = lengths[bisect_right(cumulative, (n - 1) // 2)]
    upper = lengths[bisect_right(cumulative, n // 2)]
    return {"mean": total / n, "median": (lower + upper) / 2}


def _validate_against_corpus(corpus, cfg: BuildConfig) -> None:
    # a BilingualCorpus is also a MultiParallelCorpus, so the class must match exactly
    wanted = BilingualCorpus if cfg.task == "bilingual" else MultiParallelCorpus
    if type(corpus) is not wanted:
        raise ValidationError(f"{cfg.task} task needs a {wanted.__name__}")
    row = REFORMS[cfg.reform]
    if row.parallel_scaffold and cfg.task == "bilingual":
        raise ValidationError(f"{cfg.reform} needs a multi-parallel corpus")
    if "pivot" in row.reads and cfg.pivot not in corpus.codes:
        raise ValidationError(f"pivot language {cfg.pivot} not in corpus")
    if len(corpus.codes) < row.min_langs:
        raise ValidationError(
            f"{cfg.reform} needs at least {row.min_langs} languages, corpus has {len(corpus.codes)}"
        )


def build(
    corpus: MultiParallelCorpus,
    cfg: BuildConfig,
    out_dir: str | Path,
    workers: int = 1,
) -> BuildManifest:
    """Write sharded JSONL splits plus a manifest with content digests."""
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    _validate_against_corpus(corpus, cfg)
    out_dir = Path(out_dir)
    n_items = len(corpus)
    pools = partition(n_items, [math.floor(frac * n_items) for frac in cfg.split_fracs], cfg.seed)

    jobs = []
    for split, n_wanted, pool in zip(_SPLITS, (cfg.n_train, cfg.n_valid, cfg.n_test), pools):
        if n_wanted == 0:
            continue
        if not pool:
            raise ValidationError(
                f"{split} pool is empty; adjust split_fracs or corpus size"
            )
        assignments = sample_pairs(corpus, n_wanted, cfg.seed, pool, f"sample:{split}")
        for shard_index, start in enumerate(range(0, n_wanted, cfg.shard_size)):
            chunk = assignments[start : start + cfg.shard_size]
            path = out_dir / f"{split}-{shard_index:05d}.jsonl"
            jobs.append((split, start, chunk, path))

    # Checks and draws are done. The last build's manifest goes first, so a
    # failed build leaves none, then its shards, which a glob would pick up.
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").unlink(missing_ok=True)
    for path in out_dir.iterdir():
        if _SHARD_NAME.fullmatch(path.name):
            path.unlink()

    build_args = (corpus, cfg)
    if workers == 1 or len(jobs) <= 1:
        results = [_shard_job(*build_args, *job) for job in jobs]
        digest = corpus_digest(corpus)
    else:
        # Under fork the workers inherit build_args; under spawn or
        # forkserver each worker unpickles them once, never once per job.
        with ProcessPoolExecutor(
            max_workers=min(workers, len(jobs)), initializer=_init_worker, initargs=build_args
        ) as pool_exec:
            pending = pool_exec.map(_worker_shard_job, jobs)
            # map has submitted every job: hash while the workers build
            digest = corpus_digest(corpus)
            results = list(pending)

    splits: dict = {}
    for split in _SPLITS:
        tally = _Tally()
        shards = []
        for job, (shard, shard_tally) in zip(jobs, results):
            if job[0] == split:
                tally.merge(shard_tally)
                shards.append(shard)
        splits[split] = {**tally.summary(), "truncated": tally.truncated, "shards": shards}

    manifest = BuildManifest(
        config=cfg.to_dict(),
        corpus_digest=digest,
        splits=splits,
    )
    payload = json.dumps(manifest.as_dict(), sort_keys=True, indent=2) + "\n"
    write_atomic(out_dir / "manifest.json", (payload.encode("utf-8"),))
    return manifest


def batch_plan(cfg: BuildConfig, reform_active: bool) -> int:
    """Examples per optimizer step, halved when a parallel-scaffold reformulation
    doubles per-example content; advisory, as ``step_index`` counts ``batch_size``."""
    halve = REFORMS[cfg.reform].parallel_scaffold and reform_active
    if halve and cfg.batch_size % 2 != 0:
        raise ValidationError("batch_size must be even to halve for parse/mips")
    return cfg.batch_size // 2 if halve else cfg.batch_size


def stats(shard_paths: Iterable[str | Path], seg: Segmenter | None = None) -> dict:
    """Recount tags and token lengths straight from shard files, one line
    at a time."""
    seg = seg or Segmenter()
    tally = _Tally()
    for path in shard_paths:
        for lineno, line in enumerate(read_lines(path), 1):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                obj = None
            if not (
                isinstance(obj, dict)
                and isinstance(obj.get("tag"), str)
                and isinstance(obj.get("input"), str)
                and isinstance(obj.get("target"), str)
            ):
                raise ValidationError(
                    f"{path}: line {lineno}: expected a JSON object with string tag, input and target"
                )
            tally.add(obj["tag"], count_units(obj["input"], seg), count_units(obj["target"], seg))
    return tally.summary()


def stats_from_counts(counts_path: str | Path) -> dict:
    """Token stats from a sidecar count file produced by an external tokenizer."""
    counts = read_sidecar_counts(counts_path)
    return {"n_examples": len(counts), "length": _counter_stats(Counter(counts))}
