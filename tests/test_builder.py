"""Builder tests: sampling, determinism, schedules, truncation, manifests."""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import reformkit.builder
import reformkit.corpus
from reformkit.builder import (
    REFORM_KINDS,
    BuildConfig,
    batch_plan,
    build,
    sample_pairs,
    split_pools,
    stats,
    stats_from_counts,
)
from reformkit.corpus import (
    BilingualCorpus,
    Language,
    MultiParallelCorpus,
    SentenceRecord,
    TranslationExample,
    corpus_digest,
    load_multiparallel,
    write_multiparallel,
)
from reformkit.errors import ValidationError
from reformkit.schedule import curriculum1, mix, window_first
from reformkit.synth import synth_bilingual, synth_multiparallel
from reformkit.textseg import Segmenter


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
    record = SentenceRecord(0, {lang.code: f"t {lang.code}" for lang in langs})
    corpus = MultiParallelCorpus(langs, (record,))
    # the full ordered-direction space for one record
    draws = sample_pairs(corpus, 204 * 203, seed=0)
    assert len(draws) == 41412
    assert len(set(draws)) == 41412


def test_sample_pairs_single_language_rejected():
    langs = (Language("only"),)
    corpus = MultiParallelCorpus(langs, (SentenceRecord(0, {"only": "x"}),))
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


def test_split_pools_disjoint_and_deterministic():
    pools = split_pools(1000, (0.9, 0.05, 0.05), seed=3)
    assert len(pools["train"]) == 900
    assert len(pools["valid"]) == 50
    assert len(pools["test"]) == 50
    assert not set(pools["train"]) & set(pools["valid"])
    assert not set(pools["train"]) & set(pools["test"])
    assert pools == split_pools(1000, (0.9, 0.05, 0.05), seed=3)


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
    # a corpus loaded again or copied by replace is a new object, hashed anew
    copied = replace(corpus)
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
        rec = corpus.records[ex["meta"]["sentence_id"]]
        if ex["tag"] == "parse":
            source = rec.texts[ex["meta"]["source_lang"]]
            pivot = rec.texts["eng_Latn"]
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
        rec = corpus.records[ex["meta"]["sentence_id"]]
        src, tgt = ex["meta"]["source_lang"], ex["meta"]["target_lang"]
        aux_in, aux_out = ex["meta"]["scaffold_langs"]
        assert len({src, tgt, aux_in, aux_out}) == 4
        assert ex["input"] == f"{rec.texts[src]}\n{rec.texts[aux_in]}"
        assert ex["target"] == f"{rec.texts[tgt]}\n{rec.texts[aux_out]}"


def test_truncation_drops_scaffold_before_source(tmp_path):
    corpus = synth_multiparallel(5, 100, seed=10)
    max_src_units = max(
        len(rec.texts[code].split()) for rec in corpus.records for code in corpus.codes
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
        rec = corpus.records[ex["meta"]["sentence_id"]]
        source = rec.texts[ex["meta"]["source_lang"]]
        target = rec.texts[ex["meta"]["target_lang"]]
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
        tuple((rec.texts[eng], rec.texts[l01]) for rec in multi.records) * 3,
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
    with pytest.raises(ValidationError, match="front_share must be a float"):
        BuildConfig.from_dict({**data, "front_share": False})
    with pytest.raises(ValidationError, match="split_fracs must be a float"):
        BuildConfig.from_dict({**data, "split_fracs": ["0.8", 0.1, 0.1]})
    mask = {"kind": "mask_window", "start_frac": 0.0, "end_frac": 1.0, "mask_p": 0.1, "mean_span": 3}
    with pytest.raises(ValidationError, match="span must be a bool"):
        BuildConfig.from_dict({**data, "schedule": {**mask, "span": "false"}})
    assert BuildConfig.from_dict({**data, "schedule": {**mask, "span": False}}).schedule.span is False
    # an int is a number for a float field, and is stored as a float
    assert type(BuildConfig.from_dict({**data, "front_share": 1}).front_share) is float
    # checked before the schedule's step count divides by it
    with pytest.raises(ValidationError, match="batch_size must be >= 1"):
        BuildConfig.from_dict({**data, "batch_size": 0})
    with pytest.raises(ValidationError, match="schedule"):
        BuildConfig.from_dict({**data, "schedule": ["mix"]})
    with pytest.raises(ValidationError, match="must be strings"):
        BuildConfig.from_dict({**data, "fmt": {"delimiter": 5}})
    with pytest.raises(ValidationError, match="must be strings"):
        BuildConfig.from_dict({**data, "fmt": {"target_lang_tag_template": ["<2{code}>"]}})
    with pytest.raises(ValidationError, match="seg"):
        BuildConfig.from_dict({**data, "seg": {"kind": "unicode_words", "counts_path": "c.txt"}})
    minimal = {"task": "bilingual", "reform": "pose", "n_train": 10, "batch_size": 5}
    assert BuildConfig.from_dict(minimal) == BuildConfig(**minimal)
    # configs echoed by older builds carry a null seg.counts_path
    echoed = {**minimal, "seg": {"kind": "whitespace", "counts_path": None}}
    assert BuildConfig.from_dict(echoed).seg == Segmenter("whitespace")


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
    reordered = MultiParallelCorpus(tuple(reversed(multi.languages)), multi.records)
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
def test_parse_and_mips_builds_never_read_records(tmp_path, monkeypatch, workers):
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

    def no_records(self):
        raise AssertionError("the build read MultiParallelCorpus.records")

    monkeypatch.setattr(MultiParallelCorpus, "records", property(no_records))
    for reform in ("parse", "mips"):
        out = tmp_path / f"{reform}-{workers}"
        build(corpus, replace(cfg, reform=reform), out, workers=workers)
        assert _shard_bytes(out) == expected[reform]
    with pytest.raises(AssertionError, match="records"):
        corpus.records


def test_hand_built_record_ids_reach_the_shards(tmp_path):
    ids = [1000 + 7 * i for i in range(30)][::-1]
    langs = synth_multiparallel(5, 1).languages
    records = [SentenceRecord(i, {lang.code: f"{lang.code} s{i} w" for lang in langs}) for i in ids]
    corpus = MultiParallelCorpus(langs, records)
    assert [corpus.records[i].id for i in range(len(corpus))] == ids
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
