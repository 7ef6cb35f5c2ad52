"""Builder tests: sampling, determinism, schedules, truncation, manifests."""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reformkit.builder
import reformkit.corpus
import reformkit.textseg
from reformkit.builder import (
    REFORM_KINDS,
    BuildConfig,
    batch_plan,
    build,
    sample_pairs,
    stats,
    stats_from_counts,
)
from reformkit.corpus import (
    BilingualCorpus,
    Language,
    MultiParallelCorpus,
    TranslationExample,
    corpus_digest,
    decode,
    load_multiparallel,
    partition,
    split,
    write_multiparallel,
)
from reformkit.errors import ValidationError
from reformkit.reformulate import ScaffoldFormat
from reformkit.schedule import (
    MASK_PRESETS,
    POLICY_KINDS,
    SchedulePolicy,
    curriculum1,
    mask_window,
    mix,
    window_first,
)
from reformkit.synth import synth_bilingual, synth_multiparallel
from reformkit.textseg import SEGMENTER_KINDS, Segmenter


def _read_examples(out_dir, split="train"):
    examples = []
    for path in sorted(Path(out_dir).glob(f"{split}-*.jsonl")):
        with path.open(encoding="utf-8") as fh:
            examples.extend(json.loads(line) for line in fh)
    return examples


def _shard_bytes(out_dir):
    return {
        p.name: p.read_bytes() for p in sorted(Path(out_dir).glob("*.jsonl"))
    }


def test_sample_pairs_exhaustive_small_space():
    corpus = synth_multiparallel(2, 3)
    draws = sample_pairs(corpus, 6, seed=1)
    assert len(draws) == 6
    assert len(set(draws)) == 6
    assert {d[0] for d in draws} == {0, 1, 2}
    for _, src, tgt in draws:
        assert src != tgt


def test_sample_pairs_deterministic():
    corpus = synth_multiparallel(4, 10)
    assert sample_pairs(corpus, 25, seed=9) == sample_pairs(corpus, 25, seed=9)
    assert sample_pairs(corpus, 25, seed=9) != sample_pairs(corpus, 25, seed=10)


def test_sample_pairs_204_language_direction_space():
    langs = tuple(Language(f"x{i:03d}", pretrain_size=1) for i in range(204))
    corpus = MultiParallelCorpus(langs, [[f"t {lang.code}"] for lang in langs])
    # the full ordered-direction space for one record
    draws = sample_pairs(corpus, 204 * 203, seed=0)
    assert len(draws) == 41412
    assert len(set(draws)) == 41412


def test_sample_pairs_single_language_rejected():
    langs = (Language("only"),)
    corpus = MultiParallelCorpus(langs, (["x"],))
    with pytest.raises(ValidationError):
        sample_pairs(corpus, 1, seed=0)


def test_sample_pairs_bilingual_draws_are_pinned():
    # the draws of the former bilingual-only sampler on the same pool
    corpus = synth_bilingual(25, seed=1)
    pool = [3, 5, 8, 13, 21]
    direction = ("bod_Tibt", "eng_Latn")
    within = sample_pairs(corpus, 4, 6, pool, "sample:train")
    assert within == [(i, *direction) for i in (13, 5, 21, 8)]
    beyond = sample_pairs(corpus, 9, 6, pool, "sample:train")
    assert beyond == [(i, *direction) for i in (13, 21, 21, 21, 21, 5, 8, 8, 5)]


def _reference_draws(corpus, n, seed, pool, role):
    """``sample_pairs`` by its documented law, as (position, source, target).
    The cells of the pool are listed record by record, each record's in
    (source slot, target slot) order with the target never the source; a
    bilingual corpus has the one direction source to target. The role's
    substream draws n cell indices, without replacement when n fits."""
    codes = corpus.codes
    if isinstance(corpus, BilingualCorpus):
        directions = [codes]
    else:
        directions = [(src, tgt) for src in codes for tgt in codes if src != tgt]
    cells = [(position, *direction) for position in pool for direction in directions]
    rng = reformkit.corpus._substream(seed, role, 0)
    if n <= len(cells):
        picks = rng.sample(range(len(cells)), n)
    else:
        picks = [rng.randrange(len(cells)) for _ in range(n)]
    return [cells[i] for i in picks]


@pytest.mark.parametrize("multiparallel", [False, True], ids=["bilingual", "multiparallel"])
def test_every_line_traces_to_its_corpus_cell(tmp_path, multiparallel):
    # guards the sampler's decode with no pinned hash, so it outlives a re-pin
    if multiparallel:
        corpus = synth_multiparallel(6, 40, seed=8)
        cfg = BuildConfig(
            task="multiparallel", reform="mips", n_train=300, batch_size=50, seed=9,
            schedule=mix(0.5, 1), n_valid=20, n_test=20, shard_size=70,
        )
    else:
        # more train examples than train records, so some draws repeat a cell
        corpus = synth_bilingual(60, seed=8)
        cfg = BuildConfig(
            task="bilingual", reform="pose", n_train=80, batch_size=10, seed=9,
            n_valid=3, n_test=3, shard_size=30,
        )
    build(corpus, cfg, tmp_path)
    sizes = [math.floor(frac * len(corpus)) for frac in cfg.split_fracs]
    pools = partition(len(corpus), sizes, cfg.seed)
    for name, n, pool in zip(("train", "valid", "test"), (cfg.n_train, cfg.n_valid, cfg.n_test), pools):
        lines = _read_examples(tmp_path, name)
        draws = _reference_draws(corpus, n, cfg.seed, pool, f"sample:{name}")
        assert len(lines) == n
        for line, (position, src, tgt) in zip(lines, draws):
            meta = line["meta"]
            assert (meta["source_lang"], meta["target_lang"]) == (src, tgt)
            # the base texts come first, the scaffolds after the delimiter
            assert line["input"].split("\n")[0] == corpus.text(position, src)
            assert line["target"].split("\n")[0] == corpus.text(position, tgt)
            if multiparallel:
                assert meta["sentence_id"] == corpus.ids[position]


def test_split_pools_disjoint_and_deterministic():
    # the train/valid/test pools a build cuts for split_fracs (0.9, 0.05, 0.05)
    train, valid, test = pools = partition(1000, (900, 50, 50), seed=3)
    assert (len(train), len(valid), len(test)) == (900, 50, 50)
    assert not set(train) & set(valid)
    assert not set(train) & set(test)
    assert not set(valid) & set(test)
    assert pools == partition(1000, (900, 50, 50), seed=3)


def test_build_rerun_is_byte_identical(tmp_path):
    corpus = synth_multiparallel(6, 100, seed=2)
    cfg = BuildConfig(
        task="multiparallel",
        reform="pose",
        n_train=400,
        batch_size=50,
        seed=7,
        schedule=mix(0.8, 8),
        n_valid=40,
        n_test=40,
        shard_size=100,
    )
    build(corpus, cfg, tmp_path / "a")
    build(corpus, cfg, tmp_path / "b")
    assert _shard_bytes(tmp_path / "a") == _shard_bytes(tmp_path / "b")
    assert (tmp_path / "a" / "manifest.json").read_bytes() == (
        tmp_path / "b" / "manifest.json"
    ).read_bytes()


def test_build_worker_count_does_not_change_bytes(tmp_path):
    corpus = synth_multiparallel(5, 80, seed=4)
    cfg = BuildConfig(
        task="multiparallel",
        reform="mips",
        n_train=400,
        batch_size=100,
        seed=11,
        schedule=mix(0.8, 4),
        shard_size=100,
    )
    build(corpus, cfg, tmp_path / "w1", workers=1)
    build(corpus, cfg, tmp_path / "w2", workers=2)
    assert _shard_bytes(tmp_path / "w1") == _shard_bytes(tmp_path / "w2")


def test_pool_does_not_pickle_the_corpus_per_job(tmp_path, monkeypatch):
    pickled = []

    def counting_reduce_ex(self, protocol):
        pickled.append(protocol)
        return object.__reduce_ex__(self, protocol)

    monkeypatch.setattr(MultiParallelCorpus, "__reduce_ex__", counting_reduce_ex)
    corpus = synth_multiparallel(5, 80, seed=4)
    cfg = BuildConfig(
        task="multiparallel", reform="mips", n_train=400, batch_size=100, seed=11, shard_size=100
    )
    manifest = build(corpus, cfg, tmp_path, workers=2)
    assert len(manifest.splits["train"]["shards"]) == 4
    # workers inherit the corpus under fork; other start methods pickle it
    # once per worker, never once per job
    assert len(pickled) <= 2


def test_pool_is_capped_at_the_shard_job_count(tmp_path, monkeypatch):
    # under fork a pool starts all its processes at the first submit, so a
    # pool larger than the job count would fork copies that never get a job
    sizes = []

    class RecordingExecutor(reformkit.builder.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(reformkit.builder, "ProcessPoolExecutor", RecordingExecutor)
    corpus = synth_multiparallel(5, 80, seed=4)
    cfg = BuildConfig(
        task="multiparallel", reform="mips", n_train=200, batch_size=100, seed=11, shard_size=100
    )
    build(corpus, cfg, tmp_path / "w5", workers=5)
    build(corpus, cfg, tmp_path / "w1", workers=1)
    assert sizes == [2]
    assert _shard_bytes(tmp_path / "w5") == _shard_bytes(tmp_path / "w1")


def test_corpus_is_hashed_once_per_object(tmp_path, monkeypatch):
    hashed = []
    content_digest = reformkit.corpus._content_digest
    monkeypatch.setattr(
        reformkit.corpus, "_content_digest", lambda c: hashed.append(c) or content_digest(c)
    )
    write_multiparallel(synth_multiparallel(5, 80, seed=4), tmp_path / "corpus")
    corpus = load_multiparallel(tmp_path / "corpus")
    fresh = load_multiparallel(tmp_path / "corpus")
    cfg = BuildConfig(
        task="multiparallel", reform="mips", n_train=400, batch_size=100, seed=11, shard_size=100
    )
    manifests = [
        build(corpus, cfg, tmp_path / "w2", workers=2),
        build(corpus, cfg, tmp_path / "w1"),
        build(corpus, replace(cfg, reform="parse"), tmp_path / "parse"),
    ]
    assert hashed == [corpus]
    digest = manifests[0].corpus_digest
    assert {m.corpus_digest for m in manifests} == {digest}
    # the stored digest is no dataclass field: it leaves == and repr alone
    assert corpus == fresh and repr(corpus) == repr(fresh)
    # a corpus loaded again or rebuilt from its texts is a new object, hashed anew
    copied = MultiParallelCorpus(
        corpus.languages, ([corpus.text(i, code) for i in range(len(corpus))] for code in corpus.codes)
    )
    assert corpus_digest(fresh) == corpus_digest(copied) == digest
    assert len(hashed) == 3 and hashed[1] is fresh and hashed[2] is copied


def test_mips_aux_draw_equals_sampling_the_other_codes():
    codes = tuple(sorted(synth_multiparallel(7, 1).codes))
    for seed in range(5):
        for s in codes:
            for t in codes:
                if s == t:
                    continue
                rng, want_rng = random.Random(seed), random.Random(seed)
                want = want_rng.sample([c for c in codes if c not in (s, t)], 2)
                assert reformkit.builder._draw_aux(rng, codes, s, t) == want, (seed, s, t)
                assert rng.getstate() == want_rng.getstate()


def test_mix_fraction_concentrates(tmp_path):
    corpus = synth_multiparallel(4, 200, seed=1)
    cfg = BuildConfig(
        task="multiparallel",
        reform="pose",
        n_train=10_000,
        batch_size=1000,
        seed=3,
        schedule=mix(0.8, 10),
        shard_size=5000,
    )
    manifest = build(corpus, cfg, tmp_path)
    tags = manifest.splits["train"]["tags"]
    assert tags["pose"] + tags["baseline"] == 10_000
    # binomial 3 sigma is about 120; allow a wide margin
    assert 7_800 <= tags["pose"] <= 8_200


def test_window_first_is_exact(tmp_path):
    corpus = synth_multiparallel(4, 100, seed=5)
    cfg = BuildConfig(
        task="multiparallel",
        reform="pose",
        n_train=1000,
        batch_size=100,
        seed=5,
        schedule=window_first(0.2, 10),
        shard_size=400,
    )
    manifest = build(corpus, cfg, tmp_path)
    examples = _read_examples(tmp_path)
    for i, ex in enumerate(examples):
        step = ex["meta"]["step_index"]
        assert step == i // 100
        expected = "pose" if step < 2 else "baseline"
        assert ex["tag"] == expected
    assert manifest.splits["train"]["tags"] == {"baseline": 800, "pose": 200}


def test_valid_and_test_are_never_reformulated(tmp_path):
    corpus = synth_multiparallel(4, 200, seed=6)
    cfg = BuildConfig(
        task="multiparallel",
        reform="pose",
        n_train=200,
        batch_size=50,
        seed=6,
        schedule=mix(1.0, 4),
        n_valid=50,
        n_test=50,
    )
    build(corpus, cfg, tmp_path)
    assert all(ex["tag"] == "pose" for ex in _read_examples(tmp_path, "train"))
    assert all(ex["tag"] == "baseline" for ex in _read_examples(tmp_path, "valid"))
    assert all(ex["tag"] == "baseline" for ex in _read_examples(tmp_path, "test"))


def test_pools_keep_sentence_ids_disjoint(tmp_path):
    corpus = synth_multiparallel(4, 300, seed=7)
    cfg = BuildConfig(
        task="multiparallel",
        reform="none",
        n_train=500,
        batch_size=100,
        seed=9,
        n_valid=100,
        n_test=100,
    )
    build(corpus, cfg, tmp_path)
    ids = {
        split: {ex["meta"]["sentence_id"] for ex in _read_examples(tmp_path, split)}
        for split in ("train", "valid", "test")
    }
    assert not ids["train"] & ids["valid"]
    assert not ids["train"] & ids["test"]
    assert not ids["valid"] & ids["test"]


def test_parse_scaffold_and_fallback(tmp_path):
    corpus = synth_multiparallel(5, 150, seed=8)
    cfg = BuildConfig(
        task="multiparallel",
        reform="parse",
        n_train=2000,
        batch_size=500,
        seed=2,
        schedule=mix(1.0, 4),
    )
    manifest = build(corpus, cfg, tmp_path)
    examples = _read_examples(tmp_path)
    n_fallback = 0
    for ex in examples:
        i = ex["meta"]["sentence_id"]
        if ex["tag"] == "parse":
            source = corpus.text(i, ex["meta"]["source_lang"])
            pivot = corpus.text(i, "eng_Latn")
            assert ex["input"] == f"{source}\n{pivot}"
        else:
            assert ex["tag"] == "baseline"
            assert ex["meta"]["parse_fallback"] is True
            assert "eng_Latn" in (ex["meta"]["source_lang"], ex["meta"]["target_lang"])
            n_fallback += 1
    assert n_fallback == manifest.splits["train"]["tags"]["baseline"] > 0


def test_mips_distinct_languages_and_reconstruction(tmp_path):
    corpus = synth_multiparallel(6, 120, seed=9)
    cfg = BuildConfig(
        task="multiparallel",
        reform="mips",
        n_train=1500,
        batch_size=500,
        seed=4,
        schedule=mix(1.0, 3),
    )
    build(corpus, cfg, tmp_path)
    for ex in _read_examples(tmp_path):
        assert ex["tag"] == "mips"
        i = ex["meta"]["sentence_id"]
        src, tgt = ex["meta"]["source_lang"], ex["meta"]["target_lang"]
        aux_in, aux_out = ex["meta"]["scaffold_langs"]
        assert len({src, tgt, aux_in, aux_out}) == 4
        assert ex["input"] == f"{corpus.text(i, src)}\n{corpus.text(i, aux_in)}"
        assert ex["target"] == f"{corpus.text(i, tgt)}\n{corpus.text(i, aux_out)}"


def test_truncation_drops_scaffold_before_source(tmp_path):
    corpus = synth_multiparallel(5, 100, seed=10)
    max_src_units = max(
        len(corpus.text(i, code).split()) for i in range(len(corpus)) for code in corpus.codes
    )
    cfg = BuildConfig(
        task="multiparallel",
        reform="parse",
        n_train=500,
        batch_size=100,
        seed=1,
        schedule=mix(1.0, 5),
        max_len=max_src_units,  # forces every scaffold to shrink or vanish
    )
    manifest = build(corpus, cfg, tmp_path)
    truncated = 0
    for ex in _read_examples(tmp_path):
        i = ex["meta"]["sentence_id"]
        source = corpus.text(i, ex["meta"]["source_lang"])
        target = corpus.text(i, ex["meta"]["target_lang"])
        assert ex["input"].startswith(source)  # full source survives
        assert ex["target"] == target  # target untouched
        assert len(ex["input"].split()) <= cfg.max_len
        truncated += bool(ex["meta"]["truncated"])
    assert truncated == manifest.splits["train"]["truncated"] > 0


def test_pose_adds_half_target_length_on_average(tmp_path):
    corpus = synth_multiparallel(4, 200, seed=11)
    common = dict(
        task="multiparallel",
        n_train=10_000,
        batch_size=1000,
        seed=20,
        shard_size=10_000,
    )
    plain = build(corpus, BuildConfig(reform="none", **common), tmp_path / "plain")
    posed = build(
        corpus,
        BuildConfig(reform="pose", schedule=mix(1.0, 10), **common),
        tmp_path / "posed",
    )
    base_in = plain.splits["train"]["input_length"]["mean"]
    tgt_mean = plain.splits["train"]["target_length"]["mean"]
    pose_in = posed.splits["train"]["input_length"]["mean"]
    expected = base_in + 0.5 * tgt_mean
    assert pose_in == pytest.approx(expected, rel=0.05)


def test_bilingual_build(tmp_path):
    corpus = synth_bilingual(500, seed=3)
    cfg = BuildConfig(
        task="bilingual",
        reform="pose",
        n_train=300,
        batch_size=100,
        seed=8,
        schedule=window_first(0.2, 3),
        n_valid=20,
    )
    manifest = build(corpus, cfg, tmp_path)
    examples = _read_examples(tmp_path)
    assert len(examples) == 300
    assert manifest.splits["train"]["tags"]["pose"] == 100
    for ex in examples:
        assert ex["meta"]["source_lang"] == "bod_Tibt"
        assert "sentence_id" not in ex["meta"]


def test_mask_preset_build_applies_in_window(tmp_path):
    corpus = synth_multiparallel(4, 100, seed=12)
    cfg = BuildConfig(
        task="multiparallel",
        reform="mask1",
        n_train=1000,
        batch_size=100,
        seed=13,
    )
    manifest = build(corpus, cfg, tmp_path)
    for ex in _read_examples(tmp_path):
        in_window = ex["meta"]["step_index"] < 2
        assert ex["tag"] == ("mask" if in_window else "baseline")
        if in_window:
            assert 0.0 <= ex["meta"]["mask_rate"] <= 1.0
    assert manifest.splits["train"]["tags"]["mask"] == 200


def test_manifest_counts_match_shard_recount(tmp_path):
    corpus = synth_multiparallel(5, 100, seed=13)
    cfg = BuildConfig(
        task="multiparallel",
        reform="pose",
        n_train=600,
        batch_size=100,
        seed=3,
        schedule=mix(0.5, 6),
        shard_size=250,
    )
    manifest = build(corpus, cfg, tmp_path)
    report = stats(sorted(Path(tmp_path).glob("train-*.jsonl")))
    split = manifest.splits["train"]
    assert report["tags"] == split["tags"]
    assert sum(split["tags"].values()) == cfg.n_train
    assert report["n_examples"] == cfg.n_train
    assert report["input_length"]["mean"] == pytest.approx(split["input_length"]["mean"])
    assert report["input_length"]["median"] == pytest.approx(split["input_length"]["median"])
    assert report["target_length"]["mean"] == pytest.approx(split["target_length"]["mean"])


def test_stats_equals_manifest_stats(tmp_path):
    # The manifest reuses the unit count the truncation loop ends on, or
    # counts a masked input again; stats counts every shard line from text.
    # An even example count makes both medians average two middle values.
    multi = synth_multiparallel(6, 100, seed=6)
    # Tibetan source words are tsheg-delimited, one whitespace unit per
    # sentence, so the whitespace builds take a space-delimited source
    eng, l01 = multi.codes[:2]
    spaced = BilingualCorpus(
        multi.languages[0],
        multi.languages[1],
        tuple((multi.text(i, eng), multi.text(i, l01)) for i in range(len(multi))) * 3,
    )
    tibetan = synth_bilingual(300, seed=6)
    for kind, max_len, bilingual in (
        ("unicode_words", 6, tibetan), ("whitespace", 6, spaced), ("codepoints", 40, tibetan)
    ):
        for reform in REFORM_KINDS:
            task = "multiparallel" if reform in ("parse", "mips") else "bilingual"
            cfg = BuildConfig(
                task=task, reform=reform, n_train=400, batch_size=100, seed=5,
                max_len=max_len, shard_size=150, seg=Segmenter(kind),
            )
            out = tmp_path / f"{kind}-{reform}"
            split = build(multi if task == "multiparallel" else bilingual, cfg, out).splits["train"]
            assert split["truncated"] > 0, (kind, reform)
            report = stats(sorted(out.glob("train-*.jsonl")), Segmenter(kind))
            assert report == {
                key: split[key] for key in ("n_examples", "tags", "input_length", "target_length")
            }, (kind, reform)


def test_rebuild_leaves_only_the_new_shards(tmp_path):
    corpus = synth_bilingual(200, seed=2)
    big = BuildConfig(
        task="bilingual", reform="none", n_train=1000, batch_size=100, n_valid=20,
        shard_size=500,
    )
    build(corpus, big, tmp_path)
    (tmp_path / "notes.txt").write_text("kept", encoding="utf-8")
    manifest = build(corpus, replace(big, n_train=500, n_valid=0), tmp_path)
    assert stats(sorted(tmp_path.glob("train-*.jsonl")))["n_examples"] == 500
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "manifest.json", "notes.txt", "train-00000.jsonl"
    ]
    assert manifest.splits["valid"]["shards"] == []


def test_stats_empty_and_sidecar(tmp_path):
    report = stats([])
    assert report["n_examples"] == 0
    assert report["input_length"]["mean"] is None
    counts = tmp_path / "counts.txt"
    counts.write_text("10\n20\n30\n", encoding="utf-8")
    side = stats_from_counts(counts)
    assert side["length"]["mean"] == 20
    assert side["length"]["median"] == 20.0


def test_batch_plan_halving():
    parse_cfg = BuildConfig(task="multiparallel", reform="parse", n_train=4096, batch_size=2048)
    assert batch_plan(parse_cfg, reform_active=True) == 1024
    assert batch_plan(parse_cfg, reform_active=False) == 2048
    pose_cfg = BuildConfig(task="bilingual", reform="pose", n_train=1024, batch_size=512)
    assert batch_plan(pose_cfg, reform_active=True) == 512
    none_cfg = BuildConfig(task="bilingual", reform="none", n_train=4096, batch_size=2048)
    assert batch_plan(none_cfg, reform_active=True) == 2048
    odd = BuildConfig(task="multiparallel", reform="mips", n_train=2000, batch_size=1025)
    with pytest.raises(ValidationError):
        batch_plan(odd, reform_active=True)


def test_config_validation():
    with pytest.raises(ValidationError):
        BuildConfig(task="monolingual", reform="none", n_train=10, batch_size=2)
    with pytest.raises(ValidationError):
        BuildConfig(task="bilingual", reform="rotate", n_train=10, batch_size=2)
    with pytest.raises(ValidationError):
        BuildConfig(task="bilingual", reform="none", n_train=1, batch_size=2)
    with pytest.raises(ValidationError):
        BuildConfig(task="bilingual", reform="none", n_train=10, batch_size=2, max_len=0)
    with pytest.raises(ValidationError):
        BuildConfig(
            task="bilingual", reform="none", n_train=10, batch_size=2, split_fracs=(0.9, 0.9, 0.1)
        )


def test_config_takes_only_finite_numbers():
    minimal = {"task": "bilingual", "reform": "prefix_suffix", "n_train": 10, "batch_size": 5}
    nan, inf = float("nan"), float("inf")
    for key, value, bad in (
        ("split_fracs", (nan, 0.05, 0.05), nan),
        ("split_fracs", [0.9, inf, 0.0], inf),
        ("front_share", -inf, -inf),
    ):
        with pytest.raises(ValidationError) as err:
            BuildConfig(**minimal, **{key: value})
        assert str(err.value) == f"{key} must be finite, got {bad!r}"
        # JSON's NaN and Infinity literals, which json.loads accepts
        text = json.dumps({**minimal, key: value})
        with pytest.raises(ValidationError) as err:
            BuildConfig.from_dict(json.loads(text))
        assert str(err.value) == f"{key} must be finite, got {bad!r}"


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_outside_64_bits_is_rejected(seed):
    # seeds used to alias modulo 2**64: -1 built the shards of 2**64 - 1
    # a config holding one is rejected before a build can start writing
    multi = synth_multiparallel(4, 30)
    for call in (
        lambda: BuildConfig(task="multiparallel", reform="none", n_train=10, batch_size=5, seed=seed),
        lambda: sample_pairs(multi, 5, seed),
        lambda: split(multi, (10, 5, 5), seed),
    ):
        with pytest.raises(ValidationError) as err:
            call()
        assert str(err.value) == f"seed must be in [0, 2**64), got {seed}"


def test_the_largest_seed_builds(tmp_path):
    multi = synth_multiparallel(4, 30)
    cfg = BuildConfig(task="multiparallel", reform="none", n_train=10, batch_size=5, seed=2**64 - 1)
    assert build(multi, cfg, tmp_path).splits["train"]["n_examples"] == 10


def test_config_corpus_mismatch(tmp_path):
    multi = synth_multiparallel(3, 20)
    cfg = BuildConfig(task="multiparallel", reform="mips", n_train=10, batch_size=5)
    with pytest.raises(ValidationError, match="4 languages"):
        build(multi, cfg, tmp_path)
    cfg = BuildConfig(task="multiparallel", reform="parse", n_train=10, batch_size=5, pivot="zzz")
    with pytest.raises(ValidationError, match="zzz"):
        build(multi, cfg, tmp_path)
    cfg = BuildConfig(task="bilingual", reform="none", n_train=10, batch_size=5)
    with pytest.raises(ValidationError):
        build(multi, cfg, tmp_path)


def test_config_dict_round_trip():
    cfg = BuildConfig(
        task="multiparallel",
        reform="parse",
        n_train=1000,
        batch_size=100,
        seed=42,
        schedule=mix(0.8, 10),
        n_valid=50,
        max_len=128,
    )
    data = cfg.to_dict()
    again = BuildConfig.from_dict(data)
    assert again.to_dict() == data
    with pytest.raises(ValidationError):
        BuildConfig.from_dict({**data, "bogus": 1})
    with pytest.raises(ValidationError):
        BuildConfig.from_dict({"task": "bilingual"})
    with pytest.raises(ValidationError, match="n_train"):
        BuildConfig.from_dict({**data, "n_train": "many"})
    # scalars are checked, not coerced: an int field takes no float or bool,
    # a float field no bool, and span only a bool
    with pytest.raises(ValidationError, match="n_train must be an int"):
        BuildConfig.from_dict({**data, "n_train": 100.7})
    with pytest.raises(ValidationError, match="batch_size must be an int"):
        BuildConfig.from_dict({**data, "batch_size": True})
    # front_share is read by prefix_suffix alone
    scaffold = {**data, "reform": "prefix_suffix"}
    with pytest.raises(ValidationError, match="front_share must be a float"):
        BuildConfig.from_dict({**scaffold, "front_share": False})
    with pytest.raises(ValidationError, match="split_fracs must be a float"):
        BuildConfig.from_dict({**data, "split_fracs": ["0.8", 0.1, 0.1]})
    with pytest.raises(ValidationError, match="config key split_fracs must be a list"):
        BuildConfig.from_dict({**data, "split_fracs": "abc"})
    # a string field takes only a string, so a bad pivot is not echoed
    with pytest.raises(ValidationError, match="pivot must be a str, got 5"):
        BuildConfig.from_dict({**data, "pivot": 5})
    with pytest.raises(ValidationError, match="reform must be a str"):
        BuildConfig.from_dict({**data, "reform": ["parse"]})
    for key, value in (("fmt", "\t"), ("seg", ["whitespace"]), ("schedule", "mix")):
        with pytest.raises(ValidationError) as err:
            BuildConfig.from_dict({**data, key: value})
        assert str(err.value) == f"config key {key} must be an object"
    mask = {"kind": "mask_window", "start_frac": 0.0, "end_frac": 1.0, "mask_p": 0.1, "mean_span": 3}
    with pytest.raises(ValidationError, match="span must be a bool"):
        BuildConfig.from_dict({**data, "reform": "mask1", "schedule": {**mask, "span": "false"}})
    masked = {**data, "reform": "mask1", "schedule": {**mask, "span": False}}
    assert BuildConfig.from_dict(masked).schedule.span is False
    # an int is a number for a float field, and is stored as a float
    assert type(BuildConfig.from_dict({**scaffold, "front_share": 1}).front_share) is float
    # checked before the schedule's step count divides by it
    with pytest.raises(ValidationError, match="batch_size must be >= 1"):
        BuildConfig.from_dict({**data, "batch_size": 0})
    with pytest.raises(ValidationError, match="schedule"):
        BuildConfig.from_dict({**data, "schedule": ["mix"]})
    with pytest.raises(ValidationError, match="delimiter must be a str"):
        BuildConfig.from_dict({**data, "fmt": {"delimiter": 5}})
    with pytest.raises(ValidationError, match="target_lang_tag_template must be a str"):
        BuildConfig.from_dict({**data, "fmt": {"target_lang_tag_template": ["<2{code}>"]}})
    with pytest.raises(ValidationError, match="seg"):
        BuildConfig.from_dict({**data, "seg": {"kind": "unicode_words", "counts_path": "c.txt"}})
    minimal = {"task": "bilingual", "reform": "pose", "n_train": 10, "batch_size": 5}
    assert BuildConfig.from_dict(minimal) == BuildConfig(**minimal)
    # configs echoed by older builds carry a null seg.counts_path
    echoed = {**minimal, "seg": {"kind": "whitespace", "counts_path": None}}
    assert BuildConfig.from_dict(echoed).seg == Segmenter("whitespace")



# 0 and 1 also as ints, which a config built in Python may hold
_fraction = st.one_of(st.sampled_from((0, 1)), st.floats(0.0, 1.0))


@st.composite
def _schedules(draw, kind):
    if kind is None:
        return None
    if kind == "mask_window":
        start, end = sorted((draw(_fraction), draw(_fraction)))
        p = draw(st.floats(0.01, 0.49))
        return mask_window(start, end, p, 1, span=draw(st.booleans()), mean_span=draw(st.integers(1, 9)))
    if kind in ("window_first", "mix"):
        return SchedulePolicy(kind, 1, frac=draw(_fraction))
    return SchedulePolicy(kind, 1)


@st.composite
def _configs(draw):
    batch_size = draw(st.integers(1, 1000))
    reform = draw(st.sampled_from(REFORM_KINDS))
    # a mask reform takes only a mask window, none no schedule, and every other
    # reform any other kind
    masks = reform in MASK_PRESETS
    kinds = () if reform == "none" else tuple(
        kind for kind in POLICY_KINDS if (kind == "mask_window") == masks
    )
    # pivot and front_share only for the reform that reads each
    read = {}
    if reform == "parse":
        read["pivot"] = draw(st.text(min_size=1, max_size=8))
    if reform == "prefix_suffix":
        read["front_share"] = draw(_fraction)
    return BuildConfig(
        task=draw(st.sampled_from(("bilingual", "multiparallel"))),
        reform=reform,
        n_train=batch_size * draw(st.integers(1, 50)) + draw(st.integers(0, batch_size - 1)),
        batch_size=batch_size,
        seed=draw(st.integers(0, 2**64 - 1)),
        schedule=draw(_schedules(draw(st.sampled_from(kinds + (None,))))),
        n_valid=draw(st.integers(0, 100)),
        max_len=draw(st.integers(1, 512)),
        fmt=draw(st.sampled_from((ScaffoldFormat(), ScaffoldFormat(" | ", "<2{code}> ")))),
        seg=Segmenter(draw(st.sampled_from(SEGMENTER_KINDS))),
        split_fracs=(draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.25)), draw(st.floats(0.0, 0.25))),
        **read,
    )


@settings(max_examples=300, deadline=None)
@given(_configs())
def test_config_json_round_trip(cfg):
    # compared as JSON text, where 1 and 1.0 differ
    text = json.dumps(cfg.to_dict(), sort_keys=True)
    assert json.dumps(BuildConfig.from_dict(json.loads(text)).to_dict(), sort_keys=True) == text


def test_equal_configs_write_equal_manifests(tmp_path):
    corpus = synth_bilingual(60, seed=2)

    def config(one, zero):
        return BuildConfig(
            task="bilingual",
            reform="mask1",
            n_train=20,
            batch_size=10,
            split_fracs=(0.5, zero, zero),
            schedule=mask_window(zero, one, 0.3, 2),
        )

    as_ints, as_floats = config(1, 0), config(1.0, 0.0)
    assert as_ints == as_floats and hash(as_ints) == hash(as_floats)
    build(corpus, as_ints, tmp_path / "ints")
    echoed = json.loads((tmp_path / "ints" / "manifest.json").read_text(encoding="utf-8"))["config"]
    build(corpus, as_floats, tmp_path / "floats")
    build(corpus, BuildConfig.from_dict(echoed), tmp_path / "echo")
    manifests = {(tmp_path / d / "manifest.json").read_bytes() for d in ("ints", "floats", "echo")}
    assert len(manifests) == 1
    assert b'"end_frac": 1.0' in manifests.pop()
    # a bool field takes only a bool, as when the config is read from JSON
    with pytest.raises(ValidationError, match="span must be a bool, got 1"):
        mask_window(0.0, 1.0, 0.3, 2, span=1)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("split_fracs", 0.5, "config key split_fracs must be a list"),
        ("seg", "whitespace", "seg must be a Segmenter, got 'whitespace'"),
        ("schedule", "mix", "schedule must be a SchedulePolicy, got 'mix'"),
        ("fmt", {"delimiter": " "}, "fmt must be a ScaffoldFormat, got {'delimiter': ' '}"),
    ],
)
def test_python_config_checks_containers_as_json_does(key, value, message):
    minimal = {"task": "bilingual", "reform": "pose", "n_train": 10, "batch_size": 5}
    with pytest.raises(ValidationError) as err:
        BuildConfig(**minimal, **{key: value})
    assert str(err.value) == message


@pytest.mark.parametrize(
    "reform, schedule",
    [
        ("none", mask_window(0.0, 1.0, 0.25, 2)),
        ("none", mix(0.5, 2)),
        ("none", window_first(0.5, 2)),
        ("pose", mask_window(0.0, 1.0, 0.25, 2, span=True)),
        ("parse", mask_window(0.5, 1.0, 0.1, 2)),
        ("mask4", mix(1.0, 2)),
        ("mask4", window_first(0.5, 2)),
        ("mask4", curriculum1(2)),
    ],
)
def test_mask_reforms_pair_only_with_mask_windows(reform, schedule):
    with pytest.raises(ValidationError) as err:
        BuildConfig(task="multiparallel", reform=reform, n_train=20, batch_size=10, schedule=schedule)
    assert str(err.value) == f"reform {reform} takes no {schedule.kind} schedule"


@pytest.mark.parametrize(
    "reform, key, value",
    [
        ("pose", "front_share", 0.2),
        ("parse", "front_share", 0.1),
        ("mask1", "front_share", 0.9),
        ("mips", "pivot", "xyz"),
        ("pose", "pivot", "deu_Latn"),
        ("none", "pivot", "xyz"),
    ],
)
def test_a_reform_takes_only_the_fields_it_reads(reform, key, value):
    minimal = {"task": "multiparallel", "reform": reform, "n_train": 20, "batch_size": 10}
    for make in (BuildConfig, lambda **kw: BuildConfig.from_dict(kw)):
        with pytest.raises(ValidationError) as err:
            make(**minimal, **{key: value})
        assert str(err.value) == f"reform {reform} takes no {key}"
        # the default is not a setting, so an echo that holds it rebuilds
        default = BuildConfig.__dataclass_fields__[key].default
        assert make(**minimal, **{key: default}) == BuildConfig(**minimal)
    reader = {"front_share": "prefix_suffix", "pivot": "parse"}[key]
    assert getattr(BuildConfig(**{**minimal, "reform": reader, key: value}), key) == value


def test_older_echo_rebuilds_without_its_mean_span(tmp_path):
    # the echo of a mask4 build by a version whose config held a mean_span
    older = {
        "batch_size": 10, "fmt": {"delimiter": "\n", "target_lang_tag_template": ""},
        "front_share": 0.5, "max_len": 256, "mean_span": 3, "n_test": 0, "n_train": 40,
        "n_valid": 0, "pivot": "eng_Latn", "reform": "mask4",
        "schedule": {
            "end_frac": 1.0, "kind": "mask_window", "mask_p": 0.25, "mean_span": 3,
            "span": True, "start_frac": 0.5, "total_steps": 4,
        },
        "seed": 5, "seg": {"kind": "unicode_words"}, "shard_size": 50000,
        "split_fracs": [0.9, 0.05, 0.05], "task": "bilingual",
    }
    with pytest.raises(ValidationError, match=r"unknown config keys: \['mean_span'\]"):
        BuildConfig.from_dict(older)
    del older["mean_span"]
    manifest = build(synth_bilingual(60, seed=3), BuildConfig.from_dict(older), tmp_path)
    assert manifest.config == older
    (shard,) = manifest.splits["train"]["shards"]
    # the shard that version wrote
    assert shard["sha256"] == "0620500a7b38b406bd2084e2b7dab775b25df5d8a5a86ca57823df164603e5d5"


def test_config_codec_rules_at_each_level():
    minimal = {"task": "bilingual", "reform": "pose", "n_train": 10, "batch_size": 5}
    # null means absent, at every level, and an absent key takes its default
    nulls = {
        **minimal,
        "seed": None,
        "bogus": None,
        "fmt": {"delimiter": None, "bogus": None},
        "seg": {"kind": None, "counts_path": None},
    }
    assert BuildConfig.from_dict(nulls) == BuildConfig(**minimal)
    schedule = {"kind": "mix", "total_steps": None, "frac": None, "bogus": None}
    assert BuildConfig.from_dict({**minimal, "schedule": schedule}).schedule == mix(0.0, 2)
    # an unknown key names its level
    for level, data in (
        ("config", {**minimal, "bogus": 1}),
        ("schedule", {**minimal, "schedule": {"kind": "mix", "bogus": 1}}),
        ("fmt", {**minimal, "fmt": {"bogus": 1}}),
        ("seg", {**minimal, "seg": {"bogus": 1}}),
    ):
        with pytest.raises(ValidationError) as err:
            BuildConfig.from_dict(data)
        assert str(err.value) == f"unknown {level} keys: ['bogus']"
    with pytest.raises(ValidationError) as err:
        BuildConfig.from_dict({"task": "bilingual", "reform": "pose"})
    assert str(err.value) == "config missing required keys: ['batch_size', 'n_train']"
    with pytest.raises(ValidationError) as err:
        BuildConfig.from_dict({**minimal, "schedule": {"frac": 0.5}})
    assert str(err.value) == "schedule missing required keys: ['kind']"
    # a wrongly typed scalar reads the same at every level
    for data, message in (
        ({**minimal, "seed": "1"}, "seed must be an int, got '1'"),
        ({**minimal, "schedule": {"kind": "mix", "frac": "0.5"}}, "frac must be a float, got '0.5'"),
        ({**minimal, "fmt": {"delimiter": 5}}, "delimiter must be a str, got 5"),
        ({**minimal, "seg": {"kind": 5}}, "kind must be a str, got 5"),
    ):
        with pytest.raises(ValidationError) as err:
            BuildConfig.from_dict(data)
        assert str(err.value) == message
    # a stored total_steps is checked, then re-derived at build time
    with pytest.raises(ValidationError, match="total_steps must be >= 1"):
        BuildConfig.from_dict({**minimal, "schedule": {"kind": "mix", "total_steps": 0}})
    stored = BuildConfig.from_dict({**minimal, "schedule": {"kind": "mix", "total_steps": 7}})
    assert stored.effective_schedule().total_steps == 2
    # a list field is cast item by item and never truncated
    with pytest.raises(ValidationError, match="three nonnegative fractions"):
        BuildConfig.from_dict({**minimal, "split_fracs": [0.5, 0.2, 0.1, 0.1]})
    # decode alone also reads an optional dataclass field
    nested = decode(BuildConfig, {**minimal, "schedule": {"kind": "mix", "total_steps": 3, "frac": 0.5}})
    assert nested.schedule == mix(0.5, 3)


# SHA-256 of the train shard of each (reform, max_len) build below, recorded
# from a known-good build: any change to the output bytes must be deliberate
# and update these values.
_PINNED_SHARDS = {
    ("none", 256): "e4124d72b1d5887040a2c4c0748c890fc6cee279cf14bb09f88a17463fb491a8",
    ("none", 8): "603ec0c002b596d3fe1c3faf4373aaaf31dc76fba0da7d0ac1e8f035c0f1fafd",
    ("pose", 256): "8a115874c5cf397d676464623fa77d4721058ee257e4e85b96a54541eb88b730",
    ("pose", 8): "cbaa8da91921b4b9347925981b206d240df6531bc4afb54253067343b45472ff",
    ("prefix_suffix", 256): "a683ecf95df211bdf5a5914c2c120d528948307441d8aff36aa6aab926545f5c",
    ("prefix_suffix", 8): "fea641ecfaa72cd0f6ad65f80ebffe15d50855cd75ac81c5e2d9d74402ccbf8c",
    ("parse", 256): "49a1ee2ce5c3da0de6337342ff774265d1f2e72cf7b7b5c5286438c01a1baf8d",
    ("parse", 8): "4fb41150d475ac6d630fb50e44ed3ff804d4194e34b5152ae2e6cafe69716082",
    ("mips", 256): "5105b513895abd5acb79eb93e0ab5861a57b26f53ac4de7ba64e5858d82ce2cd",
    ("mips", 8): "f431858a37457d23dfe330293a16006bcc81d70b740088a819ff5caf790f08bc",
    ("mask1", 256): "2cd450be6b9fc7d2f46a995148883e939c20305a072ccdcea5766dffc74d41f2",
    ("mask1", 8): "57da2f1413fcc2c6e4d4418823019e839571587e6bd336bfc9d417fba2b22623",
    ("mask2", 256): "422f0f3a71086cf497cb119f268d900aab535c7a11d9f57f507d6dbbf9e3ccce",
    ("mask2", 8): "e7dade6744b2447fe4be001b4705707c813a3eb50fe1f643b2c7393ca814d6a0",
    ("mask3", 256): "74c321fd04fa781eef726be00af4aa4c1e41ee2046d558d0b846835a5168c70b",
    ("mask3", 8): "da6df67bfaf2b82f286258730755bcb9105ef612d427167a8594aad4c9f81b1c",
    ("mask4", 256): "ef06cc98c52f1709b8ca8291b5006ea6134f73ec12223f5cddbbc4d40c98a34d",
    ("mask4", 8): "65c67ca83cc20c873982cedd81b496ec6e86011dbde22d1ebce7e51c2b3177f9",
}


def test_shard_digests_are_pinned(tmp_path):
    bilingual = synth_bilingual(60, seed=3)
    multi = synth_multiparallel(6, 40, seed=3)
    got = {}
    for reform in REFORM_KINDS:
        for max_len in (256, 8):  # generous, and forcing truncation
            task = "multiparallel" if reform in ("parse", "mips") else "bilingual"
            cfg = BuildConfig(
                task=task, reform=reform, n_train=120, batch_size=20, seed=4, max_len=max_len
            )
            corpus = multi if task == "multiparallel" else bilingual
            manifest = build(corpus, cfg, tmp_path / f"{reform}-{max_len}")
            (shard,) = manifest.splits["train"]["shards"]
            got[reform, max_len] = shard["sha256"]
    assert got == _PINNED_SHARDS
    # valid and test shards: plain baseline examples, truncated at max_len
    cfg = BuildConfig(
        task="bilingual", reform="pose", n_train=120, batch_size=20, seed=4, max_len=8,
        n_valid=5, n_test=4, split_fracs=(0.8, 0.1, 0.1),
    )
    manifest = build(bilingual, cfg, tmp_path / "splits")
    assert {name: [s["sha256"] for s in split["shards"]] for name, split in manifest.splits.items()} == {
        "train": ["d2058595256d47fb14439a5a62f65fe09064a819bc0ee74c450520ffa80af0cf"],
        "valid": ["75d4f479ecd98062f021748723514cc459d7447d86c260e50495d18244afab6c"],
        "test": ["c8a32f50c813b433e172770b175c1a3ed5896cc5c66a033bfcac07c7f0164c93"],
    }


# The same, for the segmenters other than the default, on the reforms that
# segment: the pose and prefix_suffix scaffolds, truncation and masking.
_PINNED_SEGMENTER_SHARDS = {
    ("whitespace", "pose", 256): "8a115874c5cf397d676464623fa77d4721058ee257e4e85b96a54541eb88b730",
    ("whitespace", "pose", 8): "d4de739514ee2285f16d324b507c3cc6f644a65a6e25b38fbe90ee6dd0d96278",
    ("whitespace", "prefix_suffix", 256): "a683ecf95df211bdf5a5914c2c120d528948307441d8aff36aa6aab926545f5c",
    ("whitespace", "prefix_suffix", 8): "2ed935b8ec8479db53167926f779113fd9658580c8c9ecf03176b2237195280b",
    ("whitespace", "mask4", 256): "0c020e0ddae6085d73be0ff40dff74cac4388c1106cb5e78cf4d65730f5d97a4",
    ("whitespace", "mask4", 8): "0c020e0ddae6085d73be0ff40dff74cac4388c1106cb5e78cf4d65730f5d97a4",
    ("codepoints", "pose", 256): "804cc3ad94a34bb799c177396cedca2f9c0a0955d5bd2e06901d0716a1386772",
    ("codepoints", "pose", 8): "6602149baffbddf639b6cb5fdb5f790d11d47da17e5a27bd807861198ddb0604",
    ("codepoints", "prefix_suffix", 256): "6cad7b249ee81273c8e384eebbe357d8952408c0065b7500d3e5516898c05dac",
    ("codepoints", "prefix_suffix", 8): "907f5c4409e9b19d869fbcd875ecc82e330ec0b4b06ea057a6c87cf3d632bd01",
    ("codepoints", "mask4", 256): "025d631c6f9817534dab00c0f44af8ca1bcc250c2352352525396db5a5f1c252",
    ("codepoints", "mask4", 8): "4a0e95b950d3e932ae560a3a84714b3a8623492145a2da13324de1ece0bd9143",
}


def test_shard_digests_are_pinned_for_other_segmenters(tmp_path):
    # the Tibetan source is one whitespace unit, so whitespace mask4 input
    # fits in 8 units and its two builds write the same bytes
    bilingual = synth_bilingual(60, seed=3)
    got = {}
    for kind, reform, max_len in _PINNED_SEGMENTER_SHARDS:
        cfg = BuildConfig(
            task="bilingual", reform=reform, n_train=120, batch_size=20, seed=4,
            max_len=max_len, seg=Segmenter(kind),
        )
        manifest = build(bilingual, cfg, tmp_path / f"{kind}-{reform}-{max_len}")
        (shard,) = manifest.splits["train"]["shards"]
        got[kind, reform, max_len] = shard["sha256"]
    assert got == _PINNED_SEGMENTER_SHARDS


def test_mips_digest_is_pinned_with_unsorted_language_order(tmp_path):
    # mips draws its extra languages from the sorted codes, whatever order
    # the corpus lists its languages in
    multi = synth_multiparallel(6, 40, seed=3)
    texts = [[multi.text(i, code) for i in range(len(multi))] for code in reversed(multi.codes)]
    reordered = MultiParallelCorpus(tuple(reversed(multi.languages)), texts, multi.ids)
    cfg = BuildConfig(task="multiparallel", reform="mips", n_train=120, batch_size=20, seed=4)
    (shard,) = build(reordered, cfg, tmp_path).splits["train"]["shards"]
    assert shard["sha256"] == "f7c5410adfdfcf5f2242d3806a1f309c79f9d3388695d849486735087f732407"


def test_examples_that_draw_nothing_seed_no_substream(tmp_path, monkeypatch):
    seeded = Counter()
    substream = reformkit.builder._substream
    monkeypatch.setattr(
        reformkit.builder,
        "_substream",
        lambda seed, role, index: seeded.update([role]) or substream(seed, role, index),
    )
    corpus = synth_bilingual(600, seed=2)
    common = dict(task="bilingual", n_train=200, batch_size=10, seed=5, n_valid=30, n_test=30)
    # pose under curriculum1: every train example uses a fixed prefix
    # fraction, and valid and test examples are baselines
    build(corpus, BuildConfig(reform="pose", schedule=curriculum1(1), **common), tmp_path / "pose")
    assert not {role for role in seeded if role.startswith("example:")}
    # mask1 masks steps [0, 0.2 T) only: the examples outside its window draw nothing
    manifest = build(corpus, BuildConfig(reform="mask1", **common), tmp_path / "mask1")
    assert seeded["example:train"] == manifest.splits["train"]["tags"]["mask"] == 40
    assert seeded["example:valid"] == seeded["example:test"] == 0
    # a mix schedule draws its reform coin for every train example
    build(corpus, BuildConfig(reform="pose", schedule=mix(0.5, 1), **common), tmp_path / "mix")
    assert seeded["example:train"] == 40 + 200


@pytest.mark.parametrize("workers", [1, 2])
def test_parse_and_mips_builds_match_across_worker_counts(tmp_path, workers):
    write_multiparallel(synth_multiparallel(6, 60, seed=7), tmp_path / "corpus")
    corpus = load_multiparallel(tmp_path / "corpus")
    cfg = BuildConfig(
        task="multiparallel", reform="parse", n_train=200, batch_size=50, seed=3,
        n_valid=20, n_test=20, shard_size=50, pivot="eng_Latn", schedule=mix(0.8, 1),
    )
    expected = {}
    for reform in ("parse", "mips"):
        build(corpus, replace(cfg, reform=reform), tmp_path / f"{reform}-plain")
        expected[reform] = _shard_bytes(tmp_path / f"{reform}-plain")
    for reform in ("parse", "mips"):
        out = tmp_path / f"{reform}-{workers}"
        build(corpus, replace(cfg, reform=reform), out, workers=workers)
        assert _shard_bytes(out) == expected[reform]


def test_hand_built_record_ids_reach_the_shards(tmp_path):
    ids = [1000 + 7 * i for i in range(30)][::-1]
    langs = synth_multiparallel(5, 1).languages
    corpus = MultiParallelCorpus(langs, [[f"{lang.code} s{i} w" for i in ids] for lang in langs], ids)
    assert list(corpus.ids) == ids
    for reform in ("none", "parse", "mips"):
        cfg = BuildConfig(
            task="multiparallel", reform=reform, n_train=60, batch_size=20, seed=2, n_valid=10,
            schedule=None if reform == "none" else mix(1.0, 1),
        )
        build(corpus, cfg, tmp_path / reform, workers=2)
        examples = _read_examples(tmp_path / reform) + _read_examples(tmp_path / reform, "valid")
        assert len(examples) == 70
        for ex in examples:
            sid = ex["meta"]["sentence_id"]
            assert sid in ids
            assert ex["target"].startswith(f"{ex['meta']['target_lang']} s{sid} w")


def test_each_example_is_built_once(tmp_path, monkeypatch):
    # parse and mips get the example the builder made, never a second one
    made = []
    post_init = TranslationExample.__post_init__
    monkeypatch.setattr(
        TranslationExample, "__post_init__", lambda self: made.append(self) or post_init(self)
    )
    corpus = synth_multiparallel(6, 50, seed=1)
    for reform in ("parse", "mips"):
        made.clear()
        cfg = BuildConfig(
            task="multiparallel", reform=reform, n_train=100, batch_size=20, seed=8, n_valid=10,
            schedule=mix(1.0, 1),
        )
        manifest = build(corpus, cfg, tmp_path / reform)
        assert manifest.splits["train"]["tags"][reform] > 0
        assert len(made) == 110


class _CountedPattern:
    """A unit pattern that counts its ``finditer`` scans, one per text whose
    unit offsets are built."""

    def __init__(self, pattern, scans: Counter) -> None:
        self.pattern, self.scans = pattern, scans

    def finditer(self, text):
        self.scans[self.pattern.pattern] += 1
        return self.pattern.finditer(text)


@pytest.mark.parametrize("kind", SEGMENTER_KINDS)
def test_only_masking_builds_unit_offsets(tmp_path, monkeypatch, kind):
    # the scaffolds and truncation cut with str.split; only the mask
    # kernels read the (start, core_end, end) offsets
    scans = Counter()
    for name, pattern in list(reformkit.textseg._UNIT_PATTERNS.items()):
        monkeypatch.setitem(reformkit.textseg._UNIT_PATTERNS, name, _CountedPattern(pattern, scans))
    corpus = synth_bilingual(60, seed=3)
    common = dict(task="bilingual", n_train=120, batch_size=20, seed=4, max_len=8, seg=Segmenter(kind))
    for reform in ("pose", "prefix_suffix", "mask4"):
        scans.clear()
        manifest = build(corpus, BuildConfig(reform=reform, **common), tmp_path / reform)
        train = manifest.splits["train"]
        if reform == "mask4":
            assert train["tags"]["span_mask"] > 0
            assert sum(scans.values()) > 0
        else:
            assert train["tags"][reform] > 0 and train["truncated"] > 0
            assert sum(scans.values()) == 0, reform


def test_the_schedule_is_evaluated_once_per_step_per_shard_job(tmp_path, monkeypatch):
    steps = []
    policy_at = reformkit.builder.policy_at
    monkeypatch.setattr(
        reformkit.builder, "policy_at", lambda step, policy: steps.append(step) or policy_at(step, policy)
    )
    corpus = synth_bilingual(600, seed=2)
    # shards of 30 examples over steps of 20: steps 1 and 4 span two shard jobs
    cfg = BuildConfig(
        task="bilingual", reform="pose", n_train=100, batch_size=20, seed=5, shard_size=30,
        n_valid=10, schedule=mix(0.5, 1),
    )
    build(corpus, cfg, tmp_path)
    assert steps == [0, 1, 1, 2, 3, 4, 4]
