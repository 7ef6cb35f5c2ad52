"""Command-line entry point: build, sample, schedule, score, stats, analyze,
presets, smoke.

Data goes to stdout or files (written atomically); logs go to stderr.
Errors print a single line "error: ..." and exit 1 (validation) or 2 (usage).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import defaultdict
from dataclasses import asdict, fields
from pathlib import Path

from .analysis import breakdown, pretrain_scatter, scatter_tsv
from .builder import BuildConfig, batch_plan, build, sample_pairs, stats, stats_from_counts
from .corpus import (
    check_seed,
    load_bilingual,
    load_manifest,
    load_multiparallel,
    read_json,
    read_lines,
    write_atomic,
    write_multiparallel,
)
from .errors import ReformkitError, UsageError, ValidationError
from .metrics import DirectionScore, ScoreConfig, chrfpp, score
from .schedule import (
    MASK_PRESETS,
    SchedulePolicy,
    curve_tsv,
    mask_preset,
    mix,
    policy_at,
    window_first,
)
from .synth import synth_multiparallel
from .textseg import SEGMENTER_KINDS, Segmenter

# Named experiment configurations. The tib2eng family reformulates the
# first X% of training steps; the parallel-scaffold family uses an 80/20
# reformulated/baseline data mix at Flores scale.
_TIB = {
    "task": "bilingual",
    "n_train": 450_000,
    "n_valid": 5_000,
    "n_test": 5_000,
    "batch_size": 512,
    "max_len": 256,
}
_FLORES = {
    "task": "multiparallel",
    "n_train": 20_000_000,
    "n_valid": 5_000,
    "n_test": 10_000,
    "batch_size": 2048,
    "max_len": 256,
    "pivot": "eng_Latn",
}

PRESETS: dict[str, dict] = {
    "pose_20pct": {**_TIB, "reform": "pose", "schedule": {"kind": "window_first", "frac": 0.2}},
    "prefix_suffix_12": {
        **_TIB,
        "reform": "prefix_suffix",
        "schedule": {"kind": "window_first", "frac": 0.12},
    },
    "prefix_suffix_20": {
        **_TIB,
        "reform": "prefix_suffix",
        "schedule": {"kind": "window_first", "frac": 0.2},
    },
    "prefix_suffix_40": {
        **_TIB,
        "reform": "prefix_suffix",
        "schedule": {"kind": "window_first", "frac": 0.4},
    },
    "curriculum1": {**_TIB, "reform": "pose", "schedule": {"kind": "curriculum1"}},
    "curriculum2": {**_TIB, "reform": "pose", "schedule": {"kind": "curriculum2"}},
    "curriculum3": {**_TIB, "reform": "pose", "schedule": {"kind": "curriculum3"}},
    "mask1": {**_TIB, "reform": "mask1"},
    "mask2": {**_TIB, "reform": "mask2"},
    "mask3": {**_TIB, "reform": "mask3"},
    "mask4": {**_TIB, "reform": "mask4"},
    "parse_mix80": {**_FLORES, "reform": "parse", "schedule": {"kind": "mix", "frac": 0.8}},
    "mips_mix80": {**_FLORES, "reform": "mips", "schedule": {"kind": "mix", "frac": 0.8}},
}


def _parse_seed(raw: str, name: str, error: type[ReformkitError]) -> int:
    """``raw`` read as a seed: an integer outside [0, 2**64), also one past
    ``int()``'s digit limit, is a ValidationError; a non-integer is ``error``."""
    try:
        seed = int(raw)
    except ValueError:
        if re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", raw):  # an integer past int()'s digit limit
            digits = sum(map(str.isdecimal, raw))
            raise ValidationError(f"seed must be in [0, 2**64), got an integer of {digits} digits") from None
        raise error(f"{name} must be an integer, got {raw!r}") from None
    check_seed(seed)
    return seed


def _seed(args, config: dict | None = None):
    """The seed: ``--seed``, else the config's (``BuildConfig`` checks it),
    else ``REFORMKIT_SEED``, else 0. Both strings are parsed alike, so a bad
    seed is one error line before anything is read or written."""
    if args.seed is not None:
        return _parse_seed(args.seed, "--seed", UsageError)
    if config is not None and "seed" in config:
        return config["seed"]
    raw = os.environ.get("REFORMKIT_SEED")
    return 0 if raw is None else _parse_seed(raw, "REFORMKIT_SEED", ValidationError)


def _emit(data: dict) -> None:
    print(json.dumps(data, sort_keys=True, ensure_ascii=False))


def _load_corpus(path: str, task: str, fmt: str | None):
    p = Path(path)
    if task == "multiparallel":
        if fmt is not None:
            raise UsageError("--corpus-format is only for the bilingual task")
        return load_multiparallel(p)
    if fmt is None:
        fmt = "jsonl" if p.suffix == ".jsonl" else "tsv"
    return load_bilingual(p, fmt)


def _cmd_build(args) -> int:
    config: dict = {}
    if args.preset:
        if args.preset not in PRESETS:
            raise ValidationError(f"unknown preset: {args.preset!r}")
        config.update(PRESETS[args.preset])
    if args.config:
        loaded = read_json(args.config)
        if not isinstance(loaded, dict):
            raise ValidationError(f"{args.config}: config must be a JSON object")
        config.update(loaded)
    # a flag overrides the config field its argparse dest names; the seed
    # flag, a string, is then parsed by ``_seed``
    for f in fields(BuildConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            config[f.name] = value
    config["seed"] = _seed(args, config)
    cfg = BuildConfig.from_dict(config)
    corpus = _load_corpus(args.corpus, cfg.task, args.corpus_format)
    manifest = build(corpus, cfg, args.out, workers=args.workers)
    _emit(
        {
            "out": str(args.out),
            "corpus_digest": manifest.corpus_digest,
            "config": manifest.config,
            "splits": {name: s["n_examples"] for name, s in manifest.splits.items()},
        }
    )
    return 0


def _cmd_sample(args) -> int:
    seed = _seed(args)
    corpus = load_multiparallel(args.corpus)
    for sentence_id, src, tgt in sample_pairs(corpus, args.n, seed):
        _emit({"sentence_id": sentence_id, "src": src, "tgt": tgt})
    return 0


def _schedule_policy(args):
    if args.preset and (args.kind is not None or args.frac is not None):
        raise UsageError("--preset takes no --kind or --frac")
    if args.preset in ("curriculum1", "curriculum2", "curriculum3"):
        return SchedulePolicy(args.preset, args.steps)
    if args.preset in MASK_PRESETS:
        return mask_preset(args.preset, args.steps)
    if args.preset:
        raise UsageError(f"unknown schedule preset: {args.preset!r} (curriculum1..3 or mask1..4)")
    if args.kind is None:
        raise UsageError("schedule needs --preset or --kind")
    if args.frac is None:
        raise UsageError(f"--kind {args.kind} needs --frac")
    return (window_first if args.kind == "window_first" else mix)(args.frac, args.steps)


def _cmd_schedule(args) -> int:
    policy = _schedule_policy(args)
    if args.at is not None:
        if args.resolution is not None:
            raise UsageError("--at takes no --resolution")
        sp = policy_at(args.at, policy)
        _emit(
            {
                "step": args.at,
                "reform_fraction": sp.reform_fraction,
                "prefix": sp.prefix,
                "mask": None if sp.mask is None else asdict(sp.mask),
            }
        )
        return 0
    sys.stdout.write(curve_tsv(policy, 11 if args.resolution is None else args.resolution))
    return 0


def _cmd_score(args) -> int:
    if (args.src is None) != (args.tgt is None):
        raise UsageError("--src and --tgt go together")
    if args.metric == "chrfpp" and (args.smoothing is not None or args.k is not None):
        raise UsageError("--metric chrfpp takes no --smoothing or --k")
    if args.k is not None and args.smoothing != "add_k":
        raise UsageError("--k needs --smoothing add_k")
    # without the CR of a CRLF ending
    hyps = [line.removesuffix("\r") for line in read_lines(args.hyp)]
    refs = [line.removesuffix("\r") for line in read_lines(args.ref)]
    knobs = {"smoothing": args.smoothing, "smoothing_k": args.k}
    cfg = ScoreConfig(metric=args.metric, **{k: v for k, v in knobs.items() if v is not None})
    value = score(hyps, refs, cfg)
    out = {"metric": args.metric, "value": value, "n": len(hyps), "config": asdict(cfg)}
    if args.src is not None:
        out["src"], out["tgt"] = args.src, args.tgt
    _emit(out)
    return 0


def _cmd_stats(args) -> int:
    if args.counts:
        if args.shards or args.seg is not None:
            raise UsageError("--counts takes no shard paths or --seg")
        _emit(stats_from_counts(args.counts))
        return 0
    if not args.shards:
        raise UsageError("stats needs shard paths or --counts")
    _emit(stats(args.shards, Segmenter() if args.seg is None else Segmenter(args.seg)))
    return 0


def _read_direction_scores(path: str) -> list[DirectionScore]:
    scores = []
    # line of each direction's first row, keyed by source, then target, as
    # in ``check_distinct_directions``
    first: defaultdict[str, dict[str, int]] = defaultdict(dict)
    for lineno, line in enumerate(read_lines(path), 1):
        if not line.strip() or line.startswith("src\t"):
            continue
        cols = line.removesuffix("\r").split("\t")
        if len(cols) != 4:
            raise ValidationError(f"{path}: line {lineno}: expected src, tgt, value, n")
        try:
            value, n = float(cols[2]), int(cols[3])
        except ValueError as exc:
            raise ValidationError(f"{path}: line {lineno}: value and n must be numbers") from exc
        try:
            scores.append(DirectionScore(cols[0], cols[1], value, n))
        except ValidationError as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from exc
        first_lineno = first[cols[0]].setdefault(cols[1], lineno)
        if first_lineno != lineno:
            raise ValidationError(
                f"{path}: line {lineno}: duplicate direction {cols[0]}-{cols[1]}, "
                f"first on line {first_lineno}"
            )
    return scores


def _cmd_analyze(args) -> int:
    if args.scatter_tsv and not args.scatter:
        raise UsageError("--scatter-tsv needs --scatter")
    scores = _read_direction_scores(args.scores)
    langs = load_manifest(args.langs)
    report = breakdown(scores, langs, english_code=args.english)
    out = {"breakdown": asdict(report)}
    if args.scatter:
        scatter = pretrain_scatter(scores, langs, args.scatter)
        out["scatter"] = asdict(scatter)
        if args.scatter_tsv:
            write_atomic(args.scatter_tsv, (scatter_tsv(scatter).encode("utf-8"),))
    _emit(out)
    return 0


def _cmd_presets(args) -> int:
    if args.name:
        if args.json:
            raise UsageError("--name takes no --json")
        if args.name not in PRESETS:
            raise ValidationError(f"unknown preset: {args.name!r}")
        print(json.dumps(PRESETS[args.name], sort_keys=True, indent=2))
        return 0
    if args.json:
        print(json.dumps(PRESETS, sort_keys=True, indent=2))
        return 0
    for name in sorted(PRESETS):
        cfg = PRESETS[name]
        schedule = cfg.get("schedule")
        kind = schedule["kind"] if schedule else "auto"
        print(f"{name}\ttask={cfg['task']}\treform={cfg['reform']}\tschedule={kind}")
    return 0


def _smoke_builds(corpus, seed: int, out: Path) -> dict:
    summary = {}
    setups = (
        ("baseline", "none", None),
        ("parse", "parse", mix(0.8, 6)),
        ("mips", "mips", mix(0.8, 6)),
    )
    for name, reform, schedule in setups:
        cfg = BuildConfig(
            task="multiparallel",
            reform=reform,
            n_train=600,
            batch_size=100,
            seed=seed,
            schedule=schedule,
            n_valid=50,
            n_test=50,
            shard_size=600,
        )
        manifest = build(corpus, cfg, out / name)
        summary[name] = {
            "tags": manifest.splits["train"]["tags"],
            "examples_per_step": batch_plan(cfg, reform_active=True),
        }
    return summary


def _cmd_smoke(args) -> int:
    seed = _seed(args)
    out = Path(args.out)
    corpus = synth_multiparallel(8, 200, seed=seed)
    write_multiparallel(corpus, out / "corpus")
    builds = _smoke_builds(corpus, seed, out)

    # copy-hypothesis scoring over the held-out test texts
    test_path = next((out / "baseline").glob("test-*.jsonl"))
    targets = []
    directions: dict[tuple[str, str], list[str]] = {}
    for line in read_lines(test_path):
        obj = json.loads(line)
        targets.append(obj["target"])
        key = (obj["meta"]["source_lang"], obj["meta"]["target_lang"])
        directions.setdefault(key, []).append(obj["target"])
    copy_score = chrfpp(targets, targets)

    scores = [
        DirectionScore(src, tgt, chrfpp(texts, texts), len(texts))
        for (src, tgt), texts in sorted(directions.items())
    ]
    report = breakdown(scores, corpus.languages)
    reports = {
        "scores.json": {"copy_chrfpp": copy_score, "directions": [asdict(s) for s in scores]},
        "breakdown.json": asdict(report),
    }
    for name, data in reports.items():
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
        write_atomic(out / name, (text.encode("utf-8"),))
    _emit(
        {
            "out": str(out),
            "corpus": {"languages": len(corpus.languages), "records": len(corpus)},
            "builds": builds,
            "copy_chrfpp": copy_score,
            "breakdown_avg": report.avg.value,
        }
    )
    print(f"smoke ok: copy chrF++ {copy_score:.1f}, reports under {out}", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reformkit",
        description="Deterministic reformulation datasets and translation metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build sharded training data from a corpus")
    p.add_argument("--corpus", required=True, help="corpus path (dir/manifest or pair file)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--preset", help="named preset as the config base")
    p.add_argument("--corpus-format", choices=("tsv", "jsonl"), dest="corpus_format")
    p.add_argument("--task", choices=("bilingual", "multiparallel"))
    p.add_argument("--reform")
    p.add_argument("--seed")
    p.add_argument("--n-train", type=int, dest="n_train")
    p.add_argument("--n-valid", type=int, dest="n_valid")
    p.add_argument("--n-test", type=int, dest="n_test")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--shard-size", type=int, dest="shard_size")
    p.add_argument("--pivot")
    p.add_argument("--workers", type=int, default=1, help="shard-writing processes, at most one per shard")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("sample", help="print sampled (sentence_id, src, tgt) draws")
    p.add_argument("--corpus", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("schedule", help="inspect a schedule policy")
    p.add_argument("--preset", help="curriculum1..3 or mask1..4")
    p.add_argument("--kind", choices=("window_first", "mix"))
    p.add_argument("--frac", type=float)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--at", type=int, help="evaluate at one step (JSON); without it, print a TSV curve")
    p.add_argument("--resolution", type=int, help="curve rows (default 11); not with --at")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("score", help="score line-aligned hypothesis/reference files")
    p.add_argument("--metric", choices=("bleu", "chrfpp"), required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--smoothing", choices=("none", "add_k"), help="bleu only; default none")
    p.add_argument("--k", type=float, help="add_k constant, default 1.0; needs --smoothing add_k")
    p.add_argument("--src")
    p.add_argument("--tgt")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("stats", help="token statistics over shards or sidecar counts")
    p.add_argument("shards", nargs="*", help="shard JSONL paths")
    p.add_argument("--counts", help="sidecar token-count file")
    p.add_argument("--seg", choices=SEGMENTER_KINDS, help="default unicode_words; not with --counts")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("analyze", help="breakdown and scatter over direction scores")
    p.add_argument("--scores", required=True, help="TSV: src, tgt, value, n")
    p.add_argument("--langs", required=True, help="language manifest JSON")
    p.add_argument("--english", default="eng_Latn")
    p.add_argument("--scatter", choices=("from_lang", "into_lang"))
    p.add_argument("--scatter-tsv", dest="scatter_tsv", help="write scatter table here")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("presets", help="list named experiment configurations")
    p.add_argument("--name", help="print one preset as JSON")
    p.add_argument("--json", action="store_true", help="print all presets as JSON")
    p.set_defaults(func=_cmd_presets)

    p = sub.add_parser("smoke", help="end-to-end check on a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed")
    p.set_defaults(func=_cmd_smoke)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"error: {exc}".replace("\n", " "), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull so the flush at
        # interpreter exit cannot fail again (the SIGPIPE note in the
        # ``signal`` module docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ReformkitError, OSError) as exc:
        print(f"error: {exc}".replace("\n", " "), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
